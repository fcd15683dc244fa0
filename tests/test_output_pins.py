"""Byte-identity pins of the CLI paths that evaluate one record per curve.

sha256 digests of ``report-thm31 <curve> --samples 200`` (stdout and
``components.csv`` / ``components.json``) on all nine built-in curves, of
``verify --target all --format json`` and of ``isometry <pair> --curve
<curve> --format json`` on the four pairs, taken with the per-sample loops
the batched records replaced.
"""

import contextlib
import hashlib
import io

import pytest

from tpcurves import cli

# curve: (stdout, components.csv, components.json); stdout is the same for
# both formats.
REPORTS = {
    "plane_circle": (
        "95e5e5b8f2419c55e93f02f3d1685313a9bdc41280985e53a463478d59cca7b2",
        "f901d4cf98e3938282a3bea0c9ffe94a35595bd3b9f1d4b8b69e28712c2f572a",
        "e0e00bef20d6df9cad282d7b64ef1628fae462ca3033fb6cde38f2246b4b3f3f"),
    "cone_circle": (
        "2f963dc35e93010eadb174d4f0774473b7cbc8f122a40c70407609c013c4a43a",
        "733450dd1cadfa188f8d65240f31f85d6b07790d79056859bf29de43117f6a4c",
        "60071878430bff1217bbbd42d5655a51aa52ef497f26afc5328989e18311f877"),
    "cone_circle_v2": (
        "d190838e1b27989641d658373e1bea68aabfafa8ed7bf4c96f6e5d46e0c55ee9",
        "c6b509407a2d8c636776f05cc1b903492fe111e65258809e89ec98e9895f9cb0",
        "91dfcac880953299fa20914cc0cbb488b1b7ad9873d10481603d8a28ca86213e"),
    "cone_ruling": (
        "e86840e44763b89b74d6301d40b2b9403308a45437d5b3b76e3ea182fff8f8c8",
        "d3521d944578c2c96a2378df6b78edbdc016c5b41ec16e51942473aa2e75f955",
        "e22254e144f0bd8e8db66669d90d15c69d5ce442676dcc13391a374daf9e9b21"),
    "sphere_latitude": (
        "844cf27c4276d7cd90410942f2ca7628d554fe3c3fa9f1ac8d61f8a0df0b019a",
        "933dad0fc2051ce95041a8d7013f959466935f37e5c9b12e10a7880cdb1b9a0a",
        "a3fe4eb5b1679fb3cea7836ee2c8192ab1904dff79af148b6f6784e082dedae2"),
    "sphere_meridian": (
        "b2e3c13788ff05a1f36c642613d80d34bc0c6d03f46a01e265ce1361b3a5b018",
        "487edd697a2448ac7d95ca14639e5b1e50c197b5a7dc48eb034977eb87ce61e3",
        "489430e207498493ae0a5443db3c574dd4494fa8dc2919f5912e99d81d0fe406"),
    "offset_latitude": (
        "9ec7a837f1b924c90729f9bfb3650b54582b0db33f2ab1edd498b7b539ddb12d",
        "6810db4ef567500379643fb5481cf8081f502fec8a1ad32c7c83a4fd6471d3f7",
        "6988a538af4633c4bad0f1bf9b0f46b4172d4184489d0ac6d47a5469d232ebc8"),
    "catenoid_line": (
        "11b68e72efa633b392a60e5eef6b28db6058916ae74772a2b6427f18e9049cdb",
        "8e84a5237c7235366b1a317f591707c9e73490f12da5b690f32628f26469a3f9",
        "0aea4df6a7bd9b98dbdc168aab4c5ca7deb991350253bc9f85afd4d4f3f0f486"),
    "cylinder_helix": (
        "3452376f47943cd489b96bcc041c43db3dcad3decc92d7460a20cf7a4108d23f",
        "431de936ee2d4c0cb10ce9c04d4fa12336f38696bef8385d3c94e7d4192d3134",
        "68f7ebec76b6b2e526d43742db787c52d67d5f57f4b0e60561d87ec5a522668a"),
}
VERIFY_JSON = "b85a254d8f5500725c534585cd2327f37d9e761699dd8dbd37ad7a145919aade"
ISOMETRY_JSON = {
    ("catenoid_helicoid", "catenoid_line"):
        "cee148da573df9a9c5a3e4c19461bd0e5892d4f6607fd3c19f48ee5c93feef3c",
    ("plane_cylinder", "plane_circle"):
        "26300796cdf6e3a9efd1a4253f441e44b782a8a8aa003a7218d8501a3f094bcc",
    ("offset_rotation", "offset_latitude"):
        "5d557c0ebb3b3a7b4bcab4c8cdf4ca07151d6b8fe6af6575410b8ede42f08750",
    ("identity_catenoid", "catenoid_line"):
        "aa9f7471da9f7df4ffddab801071dcdcdbb650a233aa5a67cc7785e4ac04ea56",
}


def sha(data):
    return hashlib.sha256(data).hexdigest()


def run(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    return stdout.getvalue().encode()


@pytest.mark.parametrize("fmt, name", [("csv", "components.csv"),
                                       ("json", "components.json")])
@pytest.mark.parametrize("curve", sorted(REPORTS))
def test_report_thm31_pinned(tmp_path, curve, fmt, name):
    stdout = run(["report-thm31", curve, "--samples", "200",
                  "--out", str(tmp_path), "--format", fmt])
    stdout_sha, csv_sha, json_sha = REPORTS[curve]
    assert sha(stdout) == stdout_sha
    assert sha((tmp_path / name).read_bytes()) == \
        (csv_sha if fmt == "csv" else json_sha)


def test_verify_json_pinned():
    assert sha(run(["verify", "--target", "all", "--format", "json"])) == \
        VERIFY_JSON


@pytest.mark.parametrize("pair, curve", sorted(ISOMETRY_JSON))
def test_isometry_json_pinned(pair, curve):
    stdout = run(["isometry", pair, "--curve", curve, "--format", "json"])
    assert sha(stdout) == ISOMETRY_JSON[pair, curve]
