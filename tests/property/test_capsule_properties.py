"""Property-based tests for capsule assembly and signing round trips."""

import random
import string

from hypothesis import given, settings, strategies as st

from repro.lmu import DataUnit, assemble_capsule, code_unit, estimate_size
from repro.security import KeyPair, TrustStore, sign_capsule, verify_capsule

#: Cheap to draw: a small ASCII alphabet and few leaves keep generation
#: well inside Hypothesis's ``too_slow`` health check even on a loaded
#: machine, while still nesting lists and dicts of every JSON-ish leaf.
_TEXT = string.ascii_letters + string.digits + " -_"

state_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**31), 2**31),
        st.text(alphabet=_TEXT, max_size=12),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(
            st.text(alphabet=_TEXT, max_size=6), children, max_size=3
        ),
    ),
    max_leaves=6,
)

agent_states = st.dictionaries(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10),
    state_values,
    max_size=4,
)

unit_names = st.text(
    alphabet=string.ascii_lowercase + "-", min_size=1, max_size=12
)


def make_unit(name, size):
    return code_unit(name, "1.0.0", lambda: (lambda ctx: None), size)


class TestCapsuleRoundTrip:
    @given(agent_states, st.integers(100, 100_000))
    @settings(max_examples=60)
    def test_state_payload_survives_assembly(self, state, code_size):
        capsule = assemble_capsule(
            sender="host",
            purpose="agent",
            code_units=[make_unit("agent-code", code_size)],
            data_units=[DataUnit("agent-state", state, estimate_size(state))],
        )
        assert capsule.data_unit("agent-state").payload == state
        assert capsule.size_bytes >= code_size

    @given(
        st.lists(
            st.tuples(unit_names, st.integers(1, 10_000)),
            min_size=1,
            max_size=6,
            unique_by=lambda pair: pair[0],
        )
    )
    @settings(max_examples=60)
    def test_capsule_size_sums_units(self, specs):
        units = [make_unit(name, size) for name, size in specs]
        capsule = assemble_capsule("host", "test", units)
        assert capsule.size_bytes >= sum(size for _name, size in specs)
        for name, _size in specs:
            assert capsule.code_unit(name).name == name


class TestSigningRoundTrip:
    @given(agent_states, st.integers(1, 2**31))
    @settings(max_examples=40)
    def test_sign_verify_accepts_genuine(self, state, seed):
        keys = KeyPair.generate("signer", random.Random(seed))
        capsule = assemble_capsule(
            sender="signer",
            purpose="agent",
            code_units=[make_unit("u", 100)],
            data_units=[DataUnit("s", state, estimate_size(state))],
        )
        sign_capsule(keys, capsule)
        store = TrustStore()
        store.trust(keys.public_key)
        assert verify_capsule(store, capsule) == "signer"

    @given(st.integers(1, 2**31))
    @settings(max_examples=40)
    def test_tampering_always_detected(self, seed):
        import pytest

        from repro.errors import SignatureInvalid

        keys = KeyPair.generate("signer", random.Random(seed))
        capsule = assemble_capsule(
            "signer", "test", [make_unit("u", 100)]
        )
        sign_capsule(keys, capsule)
        capsule.tamper()
        store = TrustStore()
        store.trust(keys.public_key)
        with pytest.raises(SignatureInvalid):
            verify_capsule(store, capsule)
