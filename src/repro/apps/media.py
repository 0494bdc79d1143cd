"""Scenario: limited resources and dynamic update (codec on demand).

"Imagine having applications that transparently download audio codecs
to play a new audio format."  The :class:`MediaPlayer` keeps no codecs
preinstalled; when asked to play a format it uses COD ``ensure`` — a
local hit plays immediately, a miss transparently fetches the codec
(and its dependencies) from a repository host, subject to the device's
storage quota and eviction policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List

from ..errors import UnitNotFound
from ..lmu import CodeRepository, code_unit
from ..core.host import MobileHost

#: Formats a 2002-era device might meet, with modelled codec sizes.
CODEC_CATALOGUE: Dict[str, int] = {
    "mp3": 120_000,
    "ogg": 150_000,
    "wav": 30_000,
    "aac": 180_000,
    "wma": 160_000,
    "midi": 45_000,
    "amr": 60_000,
    "real": 200_000,
    "flac": 140_000,
    "speex": 80_000,
}

#: Every codec depends on a shared DSP support library.
DSP_LIBRARY_SIZE = 90_000


def codec_unit_name(format_name: str) -> str:
    return f"codec-{format_name}"


def build_codec_repository() -> CodeRepository:
    """The vendor-side catalogue of every codec (plus the DSP library)."""
    repository = CodeRepository()
    repository.publish(
        code_unit(
            "dsp-lib",
            "1.0.0",
            lambda: (lambda ctx: "dsp-ready"),
            DSP_LIBRARY_SIZE,
            description="Shared DSP support library",
        )
    )
    for format_name, size in CODEC_CATALOGUE.items():
        repository.publish(
            _make_codec_unit(format_name, size)
        )
    return repository


def _make_codec_unit(format_name: str, size: int):
    def factory():
        def decode(ctx, track=None):
            ctx.charge(5_000)
            return f"decoded:{format_name}:{track}"

        return decode

    return code_unit(
        codec_unit_name(format_name),
        "1.0.0",
        factory,
        size,
        requires=["dsp-lib"],
        description=f"Decoder for the {format_name} audio format",
    )


@dataclass
class PlaybackRecord:
    """One play attempt and what it took."""

    format: str
    track: str
    outcome: str  #: "hit", "miss", or "failed"
    time_to_play_s: float
    storage_used_after: int


@dataclass
class MediaPlayer:
    """A COD-backed media player on one mobile host."""

    host: MobileHost
    repository_host: str
    history: List[PlaybackRecord] = field(default_factory=list)

    def play(self, format_name: str, track: str = "track") -> Generator:
        """Play ``track`` in ``format_name`` (generator helper).

        Transparently fetches the codec if missing.  Returns the
        :class:`PlaybackRecord`; a failed fetch records ``"failed"``
        and re-raises :class:`UnitNotFound`.
        """
        started = self.host.env.now
        unit_name = codec_unit_name(format_name)
        cod = self.host.component("cod")
        try:
            outcome = yield from cod.ensure([unit_name], self.repository_host)
        except UnitNotFound:
            self.history.append(
                PlaybackRecord(
                    format=format_name,
                    track=track,
                    outcome="failed",
                    time_to_play_s=self.host.env.now - started,
                    storage_used_after=self.host.codebase.used_bytes,
                )
            )
            raise
        codec = self.host.codebase.touch(unit_name)
        result = self.host.run_guest(
            codec.instantiate(), self.host.id, track, task_name=unit_name
        )
        yield from self.host.execute(result.work_used)
        record = PlaybackRecord(
            format=format_name,
            track=track,
            outcome=outcome,
            time_to_play_s=self.host.env.now - started,
            storage_used_after=self.host.codebase.used_bytes,
        )
        self.history.append(record)
        return record

    @property
    def miss_rate(self) -> float:
        if not self.history:
            return 0.0
        misses = sum(1 for record in self.history if record.outcome != "hit")
        return misses / len(self.history)

    def mean_time_to_play(self) -> float:
        if not self.history:
            return 0.0
        return sum(record.time_to_play_s for record in self.history) / len(
            self.history
        )


def preinstall_all_codecs(
    host: MobileHost, repository: CodeRepository
) -> List[str]:
    """The traditional alternative: install the whole catalogue up front.

    Raises :class:`~repro.errors.QuotaExceeded` when the device cannot
    hold it — the failure mode E2 contrasts COD against.
    """
    installed = []
    for name in repository.names():
        host.codebase.install(repository.latest(name))
        installed.append(name)
    return installed
