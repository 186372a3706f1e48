"""Golden digests: code, trace, solve JSON and the bound table must stay byte-identical.

The code, trace and solve sha256 values were recorded from the tuple-based
implementation that preceded the integer-index ``Code``; any change to the
file formats, the construction's randomness or its materialization order
shows up here. The bound table's was recorded from the optimizer whose
inner search evaluated ``_bound_factored(R, x, y)`` in full at every x; it
pins every optimized (x, y, bound) to the last bit.
"""

import hashlib
import json
import math

import pytest

from qcover import HammingSpace, minimal_covering_code, recursive_construct
from qcover.cli import main
from qcover.codes import dumps_code
from qcover.construct import dumps_trace

# (q, n, R, y, x - R*ln(y), base policy, seed, code sha256, trace sha256)
CONSTRUCT_POINTS = [
    # three levels, trivial base
    (2, 12, 1, 2.0, 0.3, "auto", 3,
     "931feef7c81ecd7f933c16208c79331b23fe5352bbe107d967b8623f9894bb6d",
     "9c90f4fcc9e6ff2daaac40fab2c83d3b0b1a403e7e17c5efd0bef2ddeaa40bdb"),
    (3, 8, 1, 2.0, 0.3, "auto", 11,
     "8ade6fdd6535de05c3fb0f7085a608bf3e28c9af814763cc8ccc6d06752aa06f",
     "10da8d51473e9dc183ea389720fa83ca62d4987d54d01e5a1e7f4becc1eeee98"),
    # exact base on [2]^3
    (2, 13, 2, 4.0, 0.3, "auto", 4,
     "30a33b9707c9e16191a0f07d023eb3b6aa3875eea4e3c6d5adc1a35e0682e5a0",
     "9c6a07e97e0a7c534cd7306f939902f700b41cd2d04092c195f67bbb84ebd3af"),
    # greedy base on [2]^2
    (2, 14, 1, 5.0, 0.2, "greedy", 5,
     "1ee1b0aa8ef12548ccee03817121228e76981fb554f934d0bc1490d7b037dcbe",
     "f2c0a9055a04c23e8fcb6af9d0dd5337a435ae852b01806c650e5113e844b677"),
    (3, 10, 2, 2.5, 0.3, "auto", 1,
     "32a396b2599ff6af9b8fbda181428d6f6442267afa5381855bac6c5716696d02",
     "ac3468a4a0207df316d7ba755847684810dfe211f6c472a8ea220c0300d8ee7e"),
    # the second level misses nothing, so there is no base
    (2, 16, 3, 2.0, 0.5, "auto", 1,
     "70109e1b4431676877c004042ff5782e273413242f39a2d87082fc537c1a1e06",
     "64cd10f4ca804fdd24cbf4cc71c9b317cb65dbdd901336c65e37d526259b53be"),
    # q > 10: words are written comma-separated
    (12, 4, 1, 2.0, 0.3, "auto", 5,
     "9d5ac847c4a976e3befddda7e1304fcc821cc17258c2b907a89be251d5255acf",
     "c9b34c324bf8bda80f2aa792902a2056f676ef7535094a5a680e24282b15ae2f"),
]

SOLVE_POINTS = [
    (2, 5, 1, "26c4b8e46b22bdc80ece7e8dceea3fbe28abc6ea8b56d529c05382c64170b172"),
    (3, 3, 1, "04d4a8924d2baa26f6cfdaa263f9445c5448585b048b00751deb621c294dc597"),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("q,n,R,y,margin,base_policy,seed,code_sha,trace_sha", CONSTRUCT_POINTS)
def test_construct_outputs_byte_identical(q, n, R, y, margin, base_policy, seed,
                                          code_sha, trace_sha):
    code, trace = recursive_construct(
        HammingSpace(q, n), R, R * math.log(y) + margin, y, base_policy=base_policy, seed=seed
    )
    assert sha256(dumps_code(code)) == code_sha
    assert sha256(dumps_trace(trace)) == trace_sha


@pytest.mark.parametrize("q,n,R,want", SOLVE_POINTS)
def test_solve_output_byte_identical(q, n, R, want):
    res = minimal_covering_code(HammingSpace(q, n), R)
    text = json.dumps(res.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert sha256(text) == want


# sha256 of `qcover bounds table --R-min 1 --R-max 60`
BOUND_TABLE_R1_60 = "01ea361e2336d6d335e4d59ffb8ea7a0752ee512836a501ff43e4a5456d5d0b1"


def test_bound_table_byte_identical(capsys):
    assert main(["bounds", "table", "--R-min", "1", "--R-max", "60"]) == 0
    assert sha256(capsys.readouterr().out) == BOUND_TABLE_R1_60
