"""Golden command-line outputs: the sha256 of the exact stdout of every
subcommand, as text and as ``--json``, at genus 2 on fixed seeds.

The digests were recorded before the integer-combination classes, the term
renderers and the Fox-matrix builders were merged, so any printed byte that
moves (a sign, a term order, a basis vector, a report line) fails here.  A
change meant to alter the output records new digests with the reason in
CHANGES.md.
"""

import hashlib

import pytest

from lagtrace.cli import main

SUITES = ["thm-a", "thm-b", "eq1", "eq3", "crossed", "bracket-vanish", "equivariance", "morita-prop"]

CASES = {
    "fox-a1": ["fox", "--builtin", "phi", "--gen", "a1"],
    "fox-b2": ["fox", "--builtin", "phi", "--gen", "b2"],
    "magnus": ["magnus", "--builtin", "phi"],
    "magnus-handlebody": ["magnus", "--builtin", "phi", "--handlebody"],
    "magnus-meridian": ["magnus", "--builtin", "meridian"],
    "det": ["det", "--builtin", "phi"],
    "det-swap": ["det", "--builtin", "swap"],
    "degree": ["degree", "--builtin", "phi", "--max", "4"],
    "degree-identity": ["degree", "--builtin", "identity", "--max", "3"],
    "tau": ["tau", "--builtin", "phi", "--k", "1"],
    "trace-lagrangian": ["trace", "--builtin", "phi", "--k", "1", "--kind", "lagrangian"],
    "trace-morita": ["trace", "--builtin", "phi", "--k", "1", "--kind", "morita"],
    "basis-D": ["basis", "--space", "D", "--genus", "2", "--k", "2"],
    "basis-G": ["basis", "--space", "G", "--genus", "2", "--k", "2"],
}
for _suite in SUITES:
    CASES["verify-" + _suite] = ["verify", _suite, "--genus", "2", "--seed", "1", "--count", "3"]

# case -> (sha256 of the text stdout, sha256 of the --json stdout)
GOLDEN = {
    "fox-a1": (
        "9249dff2baa10cffe8832592206e7ad3e8f2f39a5dc0185e958e983ae9901e22",
        "0ffc98611645faaf18ddf46ff8f66bb21bf2d8ef478446cdefeb8cf634a78285",
    ),
    "fox-b2": (
        "66d9d785d63862259c73b82ff5f3e4d13c41abdc5603425aa6e8e8e2b30dbaaf",
        "dab1ce6b18ae938614a9bd0d016bc49c83b6fdd43c7df312beb27ef783bcb734",
    ),
    "magnus": (
        "f217e526de49b61db09d9d03d0b95861e2f34b90f374e05c9e713a5cad471dc1",
        "7de4ad210442eb1c9334b218e30cdaf953fb8f6489749da4f4b50116e7626752",
    ),
    "magnus-handlebody": (
        "a6e2ad1ccdac4829e61289e99e725940c157809bd7e7b24ce8e4c0abd3bc0773",
        "bf2ed771c5857d1554bce08e31a3fea09de7db60951b8cdce36359bec233d98c",
    ),
    "magnus-meridian": (
        "803ea6e370dda629cf9426b7047417d65943e67bc5a4b8ad974346d1bdf60a94",
        "d4c39ffddda9af6c6d463ba87e4fc03e155754ba68b6db5baa88c7b033bea6d8",
    ),
    "det": (
        "72e1631f0ea0cffd801da6733b76f124badac7d15bab8cc356120dc17da07faa",
        "d0fc8c012f9cffd43f86dccbed6c5a27f972c895d89e741500d26dea3cbe956e",
    ),
    "det-swap": (
        "1cad02c418817aa51407202ae51a074c0ed0daf1ade20db9c717858d3d72355f",
        "e5ba93aa45e52955cb3e0c233dadeb7d935fbd13c8c74c3244fca7f94fc112ba",
    ),
    "degree": (
        "c6c091259dccf077268fb2e6680b847aa471457b69722a0d77904861818ef2d5",
        "d4b1f3699c307eb98699d14b93b22a43c8c49a01544885e9b315d4b17bd870c7",
    ),
    "degree-identity": (
        "7929adc13e09670f40534e52a56dda8cdf034009da04a0c880f5b06ecd92de1e",
        "e315fb405243950ded8b2b1def9caf45bf51c81b592a357b738e073539321f31",
    ),
    "tau": (
        "5c4fc5fb1d24b97616f8539a0e555a3467fdd807f9886cfb62ed48aa806165c8",
        "419b0d84ec4001daf8b5789b0ba6af728930c0357889332ddb5878ba0021dc92",
    ),
    "trace-lagrangian": (
        "2488cbd1047bfe15ac80d8892bdebe2c7f0f49ba4fa62cfb6bc561d9955f0724",
        "46010ce1281a9ee048c196d9e7d7f7e9ad46512a1c6ef7062a4f3722543e4215",
    ),
    "trace-morita": (
        "84b3327e074fd6e356afddfc0c4ca12aef690252815d59e4a522ec2be01d59d2",
        "7e2bf2b06d4a0b46eaf96d06f668e9eeae17a2005e7b3f2587ac0dcbacc0fd43",
    ),
    "basis-D": (
        "2bf27c8b2bf5cd2f2b3ba0a1d7b86412f4f46bc3a30fc9611b60e6f0c4089dfa",
        "1d8f0fd6721bd3d22f37437d118766aee30b772cd698cc48fb47e3b8f4349dc0",
    ),
    "basis-G": (
        "45733796c2b80a0c5da9ce2c854dff86f3e11bb8cd62aa155bec756155321602",
        "3c76350968726902187da2f89aec1611fe201965d9eab1394737d6cf41a65831",
    ),
    "verify-thm-a": (
        "0c22144c2d18458755ef6ef19fbd43adb17b899097919f5c2ad29776e0dcd640",
        "8d4f9b4017185cb6403d8b4b2d5e8ea498238f8966338571f9527bbaa2cb6896",
    ),
    "verify-thm-b": (
        "edbc52a28a43a2152f3f3dfdedc3f83441055a112e4d9bbb04843cb65d91fdcc",
        "1c04289d343d3421a7a1ec17cded95c1796b3361a5c5fae1d2bf52c2a175d3e3",
    ),
    "verify-eq1": (
        "74117986ad48669fa5a25cbcf8b8f38b2949a77a0aeb8aeeed0a33cbe5617bc0",
        "35351e215f1d9a335136a4853a85a2947f55fd8bdef376438ef7db62ff2704a2",
    ),
    "verify-eq3": (
        "74117986ad48669fa5a25cbcf8b8f38b2949a77a0aeb8aeeed0a33cbe5617bc0",
        "71b3a19bd99236e92a85f5aea9d19b233a5f8539423bbf15feef57bda544a454",
    ),
    "verify-crossed": (
        "62b760437e36a163ed8c28b20157a8d0531b5794cad9a7a768fd1b112e462314",
        "b78ea32ee58bfaf110d631533cc2509c19779f3d51b18b32ac9df920ef9075ee",
    ),
    "verify-bracket-vanish": (
        "c832afa6ea74f06d4129c24bbbe7afd8965f6d98e32600408b78739c70123bd2",
        "3aadee6a1aaa4c877068ef2bbfb4f2b32aee3c387df296763950737c748ba034",
    ),
    "verify-equivariance": (
        "82e250c6e0d00dbfa99f417bed0b3f831d42ce2f30d9e69ba34a34642086801b",
        "63780442d821f31c405a1897a0d8d6d0abbb65f9406fff6f1ee6531d6ddf1cc4",
    ),
    "verify-morita-prop": (
        "187c349bd483958e2738bf63aa64e96b3be442be694212a16a6f5fba44a00797",
        "beedf30a6992bea3effb88e5e9bcb6eda959864a30c625f75d46ea3c423d999f",
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_digest(capsys, case, fmt):
    argv = CASES[case] + (["--json"] if fmt == "json" else [])
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    want = GOLDEN[case][0 if fmt == "text" else 1]
    assert hashlib.sha256(out.encode()).hexdigest() == want, out


def test_every_subcommand_and_suite_is_covered():
    from lagtrace.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in CASES.values()} == set(sub.choices)
    verify = sub.choices["verify"]._actions
    suites = next(a for a in verify if a.dest == "suite").choices
    assert sorted(suites) == sorted(SUITES)
    assert set(GOLDEN) == set(CASES)
