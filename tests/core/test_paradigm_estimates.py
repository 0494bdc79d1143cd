"""Each paradigm component's ``estimate`` gives the prices pinned here.

The values were recorded from the closed-form estimators before they
moved onto their components, for three task profiles (the last one
under work quotas on both sides) over the five standard deployment
links.  Every field must match exactly: the arithmetic moved, not
changed, so not even the last bit of a float may differ.
"""

import pytest

from repro.core import (
    STANDARD_CONTEXTS,
    AgentRuntime,
    ClientServer,
    CodeOnDemand,
    CostEstimate,
    LocalExecution,
    RemoteEvaluation,
    TaskProfile,
)

COMPONENTS = {
    "cs": ClientServer,
    "rev": RemoteEvaluation,
    "cod": CodeOnDemand,
    "ma": AgentRuntime,
    "local": LocalExecution,
}
LINKS = dict(STANDARD_CONTEXTS)
PROFILES = {
    "chatty": TaskProfile(
        interactions=20,
        request_bytes=200,
        reply_bytes=2_000,
        code_bytes=40_000,
        result_bytes=500,
        work_units=20_000,
        expected_reuses=5,
    ),
    "errand": TaskProfile(
        interactions=3,
        request_bytes=150,
        reply_bytes=900,
        code_bytes=8_000,
        result_bytes=1_200,
        work_units=150_000.5,
        local_speed=0.5,
        remote_speed=2.0,
        expected_reuses=1,
        hosts_to_visit=4,
        state_bytes=2_048,
    ),
    "quota": TaskProfile(
        interactions=4,
        request_bytes=300,
        reply_bytes=600,
        code_bytes=12_000,
        result_bytes=400,
        work_units=500_000.0,
        expected_reuses=3,
        hosts_to_visit=2,
        local_work_quota=300_000.0,
        remote_work_quota=1_000_000,
    ),
}

#: (profile, context) -> kind -> (wireless_bytes, time_s, money, energy_j)
PINNED = {
    ('chatty', 'bluetooth-piconet'): {
        'cs': (46560, 2.086615811373093, 0.0, 0.04656),
        'rev': (41340, 0.9186962552011096, 0.0, 0.041339999999999995),
        'cod': (8012.8, 2.094907628294036, 0.0, 2.0080128),
        'ma': (81652, 1.38598613037448, 0.0, 0.081652),
        'local': (0.0, 2.0, 0.0, 2.0),
    },
    ('chatty', 'wifi-adhoc'): {
        'cs': (46560, 0.6694960000000001, 0.0, 0.04656),
        'rev': (41340, 0.476144, 0.0, 0.041339999999999995),
        'cod': (8012.8, 2.01382048, 0.0, 2.0080128),
        'ma': (81652, 0.5856432, 0.0, 0.081652),
        'local': (0.0, 2.0, 0.0, 2.0),
    },
    ('chatty', 'wifi-hotspot'): {
        'cs': (46560, 1.488496, 0.0, 0.04656),
        'rev': (41340, 0.518144, 0.0, 0.041339999999999995),
        'cod': (8012.8, 2.01802048, 0.0, 2.0080128),
        'ma': (81652, 0.6066431999999999, 0.0, 0.081652),
        'local': (0.0, 2.0, 0.0, 2.0),
    },
    ('chatty', 'gprs'): {
        'cs': (46560, 33.931, 0.27936, 0.04656),
        'rev': (41340, 9.910000000000002, 0.24804, 0.041339999999999995),
        'cod': (8012.8, 3.72676, 0.0480768, 2.0080128),
        'ma': (81652, 17.4014, 0.489912, 0.081652),
        'local': (0.0, 2.0, 0.0, 2.0),
    },
    ('chatty', 'gsm-dialup'): {
        'cs': (46560, 59.519, 0.196605, 0.04656),
        'rev': (41340, 35.892, 0.174855, 0.041339999999999995),
        'cod': (8012.8, 8.781533333333332, 0.03390766666666666, 2.0080128),
        'ma': (81652, 69.01433333333334, 0.3428216666666667, 0.081652),
        'local': (0.0, 2.0, 0.0, 2.0),
    },
    ('errand', 'bluetooth-piconet'): {
        'cs': (3534, 0.41421295527045765, 0.0, 0.003534),
        'rev': (11526, 0.41288979299583917, 0.0, 0.011526),
        'cod': (8064.0, 1.01947872815534, 0.0, 0.908067),
        'ma': (21424, 1.3677172857142856, 0.0, 0.021424),
        'local': (0.0, 0.900003, 0.0, 0.900003),
    },
    ('errand', 'wifi-adhoc'): {
        'cs': (3534, 0.25565515, 0.0, 0.003534),
        'rev': (11526, 0.25344235, 0.0, 0.011526),
        'cod': (8064.0, 0.9179054, 0.0, 0.908067),
        'ma': (21424, 1.1392814, 0.0, 0.021424),
        'local': (0.0, 0.900003, 0.0, 0.900003),
    },
    ('errand', 'wifi-hotspot'): {
        'cs': (3534, 0.36065515000000004, 0.0, 0.003534),
        'rev': (11526, 0.29544235, 0.0, 0.011526),
        'cod': (8064.0, 0.9389054, 0.0, 0.908067),
        'ma': (21424, 1.1602814000000001, 0.0, 0.021424),
        'local': (0.0, 0.900003, 0.0, 0.900003),
    },
    ('errand', 'gprs'): {
        'cs': (3534, 4.03680075, 0.021204, 0.003534),
        'rev': (11526, 3.77220075, 0.069156, 0.011526),
        'cod': (8064.0, 3.133803, 0.048383999999999996, 0.908067),
        'ma': (21424, 6.005802999999999, 0.128544, 0.021424),
        'local': (0.0, 0.900003, 0.0, 0.900003),
    },
    ('errand', 'gsm-dialup'): {
        'cs': (3534, 5.77500075, 0.017329999999999998, 0.003534),
        'rev': (11526, 10.872000750000002, 0.05063, 0.011526),
        'cod': (8064.0, 8.141003, 0.036204999999999994, 0.908067),
        'ma': (21424, 19.474336333333333, 0.09187166666666667, 0.021424),
        'local': (0.0, 0.900003, 0.0, 0.900003),
    },
    ('quota', 'bluetooth-piconet'): {
        'cs': (4112, 102.25562552011095, 0.0, 0.004112),
        'rev': (13340, 102.20801664355062, 0.0, 0.01334),
        'cod': (4021.3333333333335, 180.0546195099399, 0.0, 10.004021333333334),
        'ma': (25552, 204.4135173370319, 0.0, 0.025552),
        'local': (0.0, 180.0, 0.0, 10.0),
    },
    ('quota', 'wifi-adhoc'): {
        'cs': (4112, 102.0415792, 0.0, 0.004112),
        'rev': (13340, 102.031344, 0.0, 0.01334),
        'cod': (4021.3333333333335, 180.0081008, 0.0, 10.004021333333334),
        'ma': (25552, 204.14588320000001, 0.0, 0.025552),
        'local': (0.0, 180.0, 0.0, 10.0),
    },
    ('quota', 'wifi-hotspot'): {
        'cs': (4112, 102.1885792, 0.0, 0.004112),
        'rev': (13340, 102.073344, 0.0, 0.01334),
        'cod': (4021.3333333333335, 180.0151008, 0.0, 10.004021333333334),
        'ma': (25552, 204.1668832, 0.0, 0.025552),
        'local': (0.0, 180.0, 0.0, 10.0),
    },
    ('quota', 'gprs'): {
        'cs': (4112, 107.1694, 0.024672, 0.004112),
        'rev': (13340, 105.91, 0.08004, 0.01334),
        'cod': (4021.3333333333335, 181.01126666666667, 0.024128, 10.004021333333334),
        'ma': (25552, 209.8314, 0.153312, 0.025552),
        'local': (0.0, 180.0, 0.0, 10.0),
    },
    ('quota', 'gsm-dialup'): {
        'cs': (4112, 109.07366666666667, 0.019738333333333333, 0.004112),
        'rev': (13340, 114.15866666666668, 0.05818833333333334, 0.01334),
        'cod': (4021.3333333333335, 183.52477777777779, 0.017623888888888887, 10.004021333333334),
        'ma': (25552, 225.91433333333333, 0.10907166666666666, 0.025552),
        'local': (0.0, 180.0, 0.0, 10.0),
    },
}

CASES = [
    (profile, context, kind)
    for (profile, context), prices in PINNED.items()
    for kind in prices
]


def test_every_profile_link_and_paradigm_is_pinned():
    assert {(profile, context) for profile, context, _ in CASES} == {
        (profile, context) for profile in PROFILES for context in LINKS
    }
    assert {kind for _, _, kind in CASES} == set(COMPONENTS)


@pytest.mark.parametrize("profile, context, kind", CASES)
def test_estimate_matches_the_pinned_price(profile, context, kind):
    estimate = COMPONENTS[kind].estimate(PROFILES[profile], LINKS[context])
    wireless_bytes, time_s, money, energy_j = PINNED[profile, context][kind]
    assert estimate == CostEstimate(
        paradigm=kind,
        wireless_bytes=wireless_bytes,
        time_s=time_s,
        money=money,
        energy_j=energy_j,
    )
