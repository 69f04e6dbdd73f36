"""Byte-identity gates: pinned SHA-256 of CLI output files and stdout.

The hashes are the `out` (and for `weil-report` the `stdout`) entries of
perfbench/golden.json for the same command lines, made with the
full-graph pipeline that `build_graph` drove before the adjacency oracle
replaced it, with the k*k add table and tuple-encoded field addition
that the Zech logarithm replaced, and with the per-vertex matrix-form
neighborhoods that the label rule of `build_graph` replaced.  Any change
to vertex order, voltage choice, solution counts or text layout shows up
here.
"""

import hashlib

import pytest

from psl2ham.cli import run

HAMILTON_SHA256 = {
    61: (
        "eecebedbae06502648e78c30ce85818d66ba81a13675144ac307ec5f9ff55f01",
        "5a04bc2af43bf848bdf58fe1838b45a8d9ae865be8822620d5c4e55a4b199540",
        "03182100dcf622bb0336752d344be9cdbb85e81d60c12b5e887df5e8491d6d5a",
        "f619b4fcb22b7efa680451fe08e82df72489a59686389276bbfd8637045ac45d",
        "be26ac12de07271c5f204acd6f81912405df50c7b6ebef6223ee0f2fd49fc1bf",
    ),
    81: (
        "d57553f741dbc70b98e1df4526662cba200bdf2a62b70a6fa6872b97c11fef93",
        "617c3f39bbe3e84cd08bf202e6307f8964b6b54cf861e83fbabf046c40ebf731",
        "db735ddd4b82d1ce7192ac0398a1c7c68d43e7d6d0162d3636c6a640fcd44c86",
        "e944b7a90133c1b505094758c19bb6965ebba43cff6a37d090c2466c40cdcedb",
        "e0de48dbc449580fb45a4c3847798f9ade05d1e3f39bfcc9e11efe6ed85565ab",
    ),
    121: (
        "140ad55b6514eecfb59fb1e14b55c838b45c3b16c9fe68c9b133b92bfae9caf3",
        "517b59498decba837b6b052f8d39928fd3c0f786dc8b15a394b595dc6ed095fb",
        "b598fa189716077b798607baf0d35e86cb6c499d5770c686886e467b5dffc346",
        "c745cb1d235d2df4aa9b44e8795ec4e251a945fcbbd37655d63531e7e02097fc",
        "9ca61b5aa30f6c6ef105172446291a50be007ff6bfb6d376b84a19a9ab2549b8",
    ),
}

QUOTIENT_SHA256 = {
    61: "52852e56e421416ebbd31047416d88fe8c425c17a082daca309438578c7c52c3",
    81: "f9ec05d9a7dd2266a296c1882c33a4bf6afe72566b7d7a5eb8b8ce99a56af594",
    121: "9f985d3b922cd8c517158023bd7329b44dec6601b12b8499afb651497ced5706",
}

# build exports: every edge of Y(i), read off the label rule of build_graph
BUILD_SHA256 = {
    ("--k", "81"): "2f605b8ae0651fe48039a25ae078dc621aaf0d56c9d6669534edae588f126a80",
    ("--k", "121"): "70d57d5062277e3d5ae15b43faedef93fd0b1dec03e95e7b17e55530664881c8",
    ("--k", "361", "--orbital", "3", "--format", "edgelist"):
        "e3801b3ffd8229db2c924be7d21b5794c526edbd1a160895be77c4c933192e2b",
    ("--k", "421", "--orbital", "1", "--format", "dot"):
        "ddf180b8e78d7020efd7be50fda8db01a223f6c07e2b80d991a91dfd0e2b4ba3",
    # m = 4 and m = 2, hashed on the export that masked every fiber at m > 1
    ("--k", "81", "--orbital", "3", "--format", "dot"):
        "1b55f960dcc913c1dd2c89140a9698c8431363f19cd339c9cf87df11e05e4b41",
    ("--k", "841", "--orbital", "2"):
        "ca689b16c8d51c81ac7522de9b691418a5785e45f3065c8fb498b57477bab7fe",
    # m = 1 edge lists, hashed on the export that masked every fiber
    ("--k", "61", "--orbital", "4", "--format", "edgelist"):
        "9dcdc386304eae0b9147946babc7228c12a6b30c179fd73852f2dcf708c57f6e",
    ("--k", "421", "--orbital", "0", "--format", "edgelist"):
        "e5dcb282d400ee5c56228f25a4eb20e0a873807d2cb191671f75de37fe70cb55",
}

# m = 1; the former add table (81, 121, 841); the former tuple add (2401,
# 3481); all of them through the per-equation dedup of solvability_report;
# 421, 4621 and 17161 hashed on the per-equation report before it counted
# one equation per (family, e mod 5)
WEIL_SHA256 = {
    61: "61d08158f0bc5f428301e8b4c2f20464eac66456aac839d432afb9a1f5afbb39",
    81: "163352d63083c9db6f8e5c0f6a0ce47713bd100c2387a701baad0bdd3b6ebe0c",
    121: "80c2a1526125fa243631d0e8a35b3ec0c3bf3f4a0c8ecbb3269df663b64199ef",
    421: "d77c2e5de88daba0aae02f92190c8b998fb5efaf464d199bfa08b7ccd6a70022",
    841: "864fa6c7bdfa08476010ee5397ca7b7e7cd473f90aa3664d1aabfb9b7d63fd3c",
    2401: "08ae990fe4d1b5ee076f0f405144c9a37a37bbfba8a8d053800853f83cdf67df",
    3481: "d881ba0d2663b4ea7883a32a122da9b742e36efb9000d156b0a2581d03b13c0a",
    4621: "3bdf2ae25cbc505883ead1bcdedf42a4a37fe7b82561a5d78c76138affd84a97",
    17161: "4415b07df4e8e3e6e24922b46daf8b694bde1e3829e9689cb3e43baeb22b6d77",
}


def output_sha256(argv, path):
    assert run(argv + ["--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("k", sorted(HAMILTON_SHA256))
def test_hamilton_certificates_are_byte_identical(k, tmp_path):
    got = tuple(output_sha256(["hamilton", "--k", str(k), "--orbital", str(i)],
                              tmp_path / f"c{i}.txt")
                for i in range(5))
    assert got == HAMILTON_SHA256[k]


@pytest.mark.parametrize("k", sorted(QUOTIENT_SHA256))
def test_quotient_output_is_byte_identical(k, tmp_path):
    got = output_sha256(["quotient", "--k", str(k)], tmp_path / "q.txt")
    assert got == QUOTIENT_SHA256[k]


@pytest.mark.parametrize("k", sorted(WEIL_SHA256))
def test_weil_report_is_byte_identical(k, capsys):
    assert run(["weil-report", "--k", str(k)]) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == WEIL_SHA256[k]


@pytest.mark.parametrize("args", sorted(BUILD_SHA256))
def test_build_exports_are_byte_identical(args, tmp_path):
    got = output_sha256(["build", *args], tmp_path / "g.txt")
    assert got == BUILD_SHA256[args]


def test_full_graph_writes_the_certificate_of_its_smallest_orbital(tmp_path, capsys):
    # Y(min S) lies inside the union, so full-graph is hamilton on min S
    union, direct = tmp_path / "u.txt", tmp_path / "h.txt"
    assert run(["full-graph", "--k", "61", "--orbitals", "2,4",
                "--out", str(union)]) == 0
    assert capsys.readouterr().out == (
        "verified Hamilton cycle on 310 vertices inside the union of "
        "orbitals [2, 4]\n")
    assert run(["hamilton", "--k", "61", "--orbital", "2", "--out", str(direct)]) == 0
    assert capsys.readouterr().out == (
        "verified Hamilton cycle on 310 vertices (orbital 2, total voltage "
        "11 mod 31)\n")
    assert union.read_bytes() == direct.read_bytes()

    got = output_sha256(["full-graph", "--k", "121", "--orbitals", "0,1,2,3,4"],
                        tmp_path / "u121.txt")
    assert got == HAMILTON_SHA256[121][0]
    assert capsys.readouterr().out == (
        "verified Hamilton cycle on 610 vertices inside the union of "
        "orbitals [0, 1, 2, 3, 4]\n")


def test_pipelines_never_build_the_full_graph(tmp_path, monkeypatch):
    def forbidden(*args):
        raise AssertionError("build_graph called")

    for mod in ("psl2ham", "psl2ham.orbital", "psl2ham.cli"):
        monkeypatch.setattr(f"{mod}.build_graph", forbidden)
    cert, union = tmp_path / "c.txt", tmp_path / "u.txt"
    assert run(["hamilton", "--k", "61", "--out", str(cert)]) == 0
    assert run(["verify", "--cert", str(cert)]) == 0
    assert run(["quotient", "--k", "61", "--out", str(tmp_path / "q.txt")]) == 0
    assert run(["full-graph", "--k", "61", "--out", str(union)]) == 0
    assert run(["verify", "--cert", str(union)]) == 0
    # the patch does reach the one command that still needs the graph
    with pytest.raises(AssertionError, match="build_graph called"):
        run(["build", "--k", "61", "--out", str(tmp_path / "g.edges")])
