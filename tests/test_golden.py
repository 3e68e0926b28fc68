"""Golden outputs: every shipped layout under every paradigm, byte for byte.

Each case runs ``laco run --telemetry --payload-dir`` and then ``laco analyze``
through :func:`laco.cli.main` and compares the sha256 of every output file
with the value pinned in ``GOLDEN``: ``metrics.csv``, ``telemetry.bin``, the
three analyze CSVs, and the payload files.  The payload files (one per tick
and sender) are pinned together as the sha256 of their ``"<sha256>  <name>"``
lines in name order (``sha256sum *.bin | sha256sum`` in the payload
directory), so a change to any one of them, or to the set of names, shows.

A change that is meant to alter outputs must re-record the table and say so:
``PYTHONPATH=src python3 tests/test_golden.py`` prints it.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from laco import scenario as sc
from laco.cli import main

ANALYZE_CSVS = ("entropy.csv", "sparsity.csv", "confusion.csv")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_hashes(layout: str, paradigm: str, out: Path) -> dict:
    """Run one case into ``out``; returns {output name: sha256}."""
    scenario = str(sc.builtin_scenario_path(layout))
    metrics, telemetry, payloads, diag = (
        out / "metrics.csv", out / "telemetry.bin", out / "payloads", out / "diag")
    assert main(["run", "--scenario", scenario, "--paradigm", paradigm, "--out", str(metrics),
                 "--telemetry", str(telemetry), "--payload-dir", str(payloads)]) == 0
    assert main(["analyze", "--in", str(telemetry), "--out", str(diag)]) == 0
    hashes = {
        "metrics.csv": _sha256(metrics.read_bytes()),
        "telemetry.bin": _sha256(telemetry.read_bytes()),
    }
    manifest = "".join(f"{_sha256(p.read_bytes())}  {p.name}\n"
                       for p in sorted(payloads.glob("*.bin")))
    hashes["payloads/*.bin"] = _sha256(manifest.encode("ascii"))
    for name in ANALYZE_CSVS:
        hashes[name] = _sha256((diag / name).read_bytes())
    return hashes


CASES = [(layout, paradigm) for layout in sc.builtin_scenario_names()
         for paradigm in sc.PARADIGMS]

# Recorded on the tree before the KV-segment and paradigm-table refactor.
GOLDEN = {
    "clear_lane_1/NonCollab": {
        "metrics.csv": "3afa999e8fcabba0ad5d9be93088fce836e8404439d742947dbfd636650236c4",
        "telemetry.bin": "0044460b2514564fca39df34684e46be00be1a32926e8d7e32637a80f25cb587",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "a74940858954447319167b1723c2cf31cb382196df3267f28778938ad89fda78",
    },
    "clear_lane_1/Language": {
        "metrics.csv": "7589bdea1dd63814ba579ab5c54a7438d3037954f5f3f1b87cd150772ca57269",
        "telemetry.bin": "e21bbd96e6dcca056b138884752ec7dfa2905de86e2d2214800cfdd885c740c9",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "a74940858954447319167b1723c2cf31cb382196df3267f28778938ad89fda78",
    },
    "clear_lane_1/Visual": {
        "metrics.csv": "89d3e1345dcc5aefbe62d12279ed0d2aa43f90a51280848bd60e0e928273b992",
        "telemetry.bin": "3e177b19dd683def79e0f4a2891e07cef3f8fc07adf2535b4bb7573f3c8a59fe",
        "payloads/*.bin": "d395f011fcd6885e99de854db6dc75d8f184b0e01bf7ed90b35679da5ee73925",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "f0883ac7565b4e341bfb4ef5d579569ee14797a40ee132f6b38cf25a76a19db5",
    },
    "clear_lane_1/NaiveLatent": {
        "metrics.csv": "f74630374e35c9138d6f6ab884f6b1f559cac60efdc4348e2f62533b60515145",
        "telemetry.bin": "692307f154d0fd5e636107712b67fb7d03d9a39dbaadf01a74d1c265d1d6aaea",
        "payloads/*.bin": "c49a114397b8f9a3725a3bd8b418b5bdc13ac2a044ab6ef78ef8afecff6e6274",
        "entropy.csv": "5c2f2d7eb55b3d53caaf1d12643e6a3efa0ee0e6591bd4050d350dd9dcdf4b39",
        "sparsity.csv": "8e926c6de14b6d0927d647837b93ae7c5b891a8f0d7e3744bf15d3a489341939",
        "confusion.csv": "aea0d34c61ea3a0646019b650456c2b1aa87bbf181e12e70236eb14a5ddf88ee",
    },
    "clear_lane_1/LACO": {
        "metrics.csv": "a9710915aa2359e0eec83d3bd32ed02589d6a85a53ecf417be6a9a4b98af9c23",
        "telemetry.bin": "662355475cff891a58f9b20d6bc337df6f93d211c04ab0be7603759962740deb",
        "payloads/*.bin": "60eb1a8dab29c2919e7077beb1f1ee3459d37618ef34a0d0018d2b3f00b1cba1",
        "entropy.csv": "709bc8208c3446d903db0356a62fe09120680d547eeb97172f7815207777a99d",
        "sparsity.csv": "2a53bc948fe5b8d891e86be63692750953d9110f49d00238ffae54e9b2eff91b",
        "confusion.csv": "3e4effc9d67951cdb05b8079ed3e6ba83cc2f8fd41a0d1df3d948d8c72c4ca61",
    },
    "clear_lane_2/NonCollab": {
        "metrics.csv": "def8954b823237e8f65d2b09aa3318801fdf6c8ff539b9691acd2e1bc98312f0",
        "telemetry.bin": "c0507d3682340c60e8267257e807307f0a2dadb6a6c3f50c17dd1ff2d9da590d",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "a82a43b6e58b135268a7bd20c1866e8412c371e4b1d69e9f85becb7a6065aa95",
    },
    "clear_lane_2/Language": {
        "metrics.csv": "5efd4c9c6d6218080c93b49c72c646c0e32623d007beecfa54487acd3a34d84d",
        "telemetry.bin": "63979837100e5e5f148e1c0f6d0f9aeafe415b0d0e8024eb224057c68ff83d9f",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "a82a43b6e58b135268a7bd20c1866e8412c371e4b1d69e9f85becb7a6065aa95",
    },
    "clear_lane_2/Visual": {
        "metrics.csv": "bb77489467762e3a471f415bcc287603ccba25da65d2d9ed75c59bd94835f26f",
        "telemetry.bin": "c246cc5fb2ac89dc75647b836b81ab7788e3753831c0cae55f2327917c904bba",
        "payloads/*.bin": "a64dc70b70f15cbddac11f63cfd451d2c147663846d7ff0f185f5908862f3eec",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "a4c14c7ba6c0d3f04cde872a06355d05d906030ed85e5d0a408d4f797b3f1a18",
    },
    "clear_lane_2/NaiveLatent": {
        "metrics.csv": "cc716dcb2a0470fc10a7c93d803ac20af643b90fd839a77456feefa1e5ede266",
        "telemetry.bin": "8e9c24db5fff7f9af07e136676a08d2c13359105f8abfbb7b8a2e0c1de132219",
        "payloads/*.bin": "91a00b04c01004119d60ffacf4d3b5d310751dea4259fb730150bac83f7f400f",
        "entropy.csv": "7d3efe000f3090fca31f9300c1bea438dbc847f52127b375c8e60386ed07f9ec",
        "sparsity.csv": "93f58a1cc240b5ed10baeb301e408eff0792b2fbf19395afa97312233eea7e54",
        "confusion.csv": "db90c1306181c3ce71588b9b01cc7858d27fb8b1ea9162133e27533a9200b0af",
    },
    "clear_lane_2/LACO": {
        "metrics.csv": "6efdf4d83113e4ec1bd3a75f2bdde3bff3e4f26ba597877a07a9fae51c6d1229",
        "telemetry.bin": "78ec11a2f9e2e1e0c459f4a4e43cd4fdd7dee7b54eb7de983695d5f035c917bf",
        "payloads/*.bin": "c3beec724f1e975c4c41c9901f60f7ff03aa4a0a87d9f9fb478eb907dd2e3850",
        "entropy.csv": "ec6cb8f1d2c720707e4a82405b4c3fd0c2547e5c1d042c453a21a64aed3534c3",
        "sparsity.csv": "076f6e04d22c9e3c5f5252b3f1e4fcfc07528a112b6fe59b4751c898aa0cd46a",
        "confusion.csv": "0c9f740d12743c7d79f0d7fc7cf4c67ddd6bbb8f8ca77e25ed41129600dca22b",
    },
    "occluded_1/NonCollab": {
        "metrics.csv": "ffb399cc4e268b380d18196bb3b77fcbe998edcc9e05de92e367ed29f2b89b1e",
        "telemetry.bin": "86d151a4e79df39dd59432b7e6431b960c50acb97ca2a68a806697442da162f1",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "39d28b6770e32d40d94ee1e6bbc21ee1e62d2119d23545a2615e847e3fa0292f",
    },
    "occluded_1/Language": {
        "metrics.csv": "ed85b115a4418d79c6a8562ad7f211ec0c7c9247ccd82f1aaaf5eef4b909e267",
        "telemetry.bin": "aeb99a76b27ca2ae27c24ec68ceef51e1aec5b98e4ae21b3f70c45ac60e9f3b4",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "39d28b6770e32d40d94ee1e6bbc21ee1e62d2119d23545a2615e847e3fa0292f",
    },
    "occluded_1/Visual": {
        "metrics.csv": "08db9de878a3dd9fbe63ce5832c20e6cfcb2b9210a891e239ff21dacc0a12084",
        "telemetry.bin": "0bacff56b96b18aaa235cedc0e7f13c2ab5ed6294e636efb0a332e3dee090ad2",
        "payloads/*.bin": "bc63903d88199cc1f73d4418b5543c478c546e78c3697c297d19fe2fee0937a2",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "aee17613ff03a873b00c8b4552581965a2c07f98a3c5eb4e712ee0a30ae069a4",
    },
    "occluded_1/NaiveLatent": {
        "metrics.csv": "c62abeaade9ac42cf5de50212ee46765f5960bc52be05b08f91ab001944e506d",
        "telemetry.bin": "8a453824e02352f8163e7202a1f99c1944976d8fc4d68cadeaf59c952f536ef7",
        "payloads/*.bin": "ed2b6763e7216371f98ee527735c6d21cefa9afefd0f9342f8ff6ec56cfba364",
        "entropy.csv": "312994e5e5abcbb909f7a3e273b4122ab83d62c05030047a49354bae7447697b",
        "sparsity.csv": "58d650c4b7fcf23af8e59997fe95a050be719de85368cc5c29bccde7bd5012da",
        "confusion.csv": "65a1bd178f7803f18b51fbccb7a189b28eed77227d6e6722ae71c17cc6bfaec8",
    },
    "occluded_1/LACO": {
        "metrics.csv": "128804a26626b5065f6a115f74b681a7c279a59ea6dadcd654a00e7a503be8e4",
        "telemetry.bin": "8ad4e23f0bb22dc2abee61b45b9358862144ebdc5585ed40ffc74cc5425bfb90",
        "payloads/*.bin": "09188df2e68eaae2a73c1c1c045dedb9554e060b81282cfc3e32b522f33c1f4e",
        "entropy.csv": "86f12876495cf61810f3ace385e14fdd671262f90a225babaddc7306ebc318aa",
        "sparsity.csv": "24b69913d3a3a02ec64da069b11ba911faf9750b681aba9e869017b6473777a9",
        "confusion.csv": "01af5b75f16be0de58b8e038385f3ec6067053d577c7c6e388dadc18e37f8539",
    },
    "occluded_2/NonCollab": {
        "metrics.csv": "3bf57c155895dbaaf136bee9fccf5afe4108ed5f0355d5e4a6c186d6927788b4",
        "telemetry.bin": "83c85a38e76246711f45544522cb927c4c41421a94a78722eff588a241704978",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "c25bd0dd22415a977ea2e02f15f7fc12994e5d719fdf89715a34a22c0a3608ca",
    },
    "occluded_2/Language": {
        "metrics.csv": "ffaec8becc2881a5d8ab83c42a4bcdf688f3449f3af11da7fdbf4cfd404b6363",
        "telemetry.bin": "8ff67a667e3043e18a7f6c6b0ac001b1515d1cec033325741bbee6db2ea44a83",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "c25bd0dd22415a977ea2e02f15f7fc12994e5d719fdf89715a34a22c0a3608ca",
    },
    "occluded_2/Visual": {
        "metrics.csv": "a7d2f185c8f5e0edb198818ac75a85502a44ccdac1ae6194cd8c132575a6e39e",
        "telemetry.bin": "25c1649dc4a7fef59ec678b6312984f2ab70624af66e139b54e0dbf570af0ca4",
        "payloads/*.bin": "09d747781da54c61bb976cc1e67f98827a7af5d1d32def5006e52416e169a52c",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "25dc044b84ee420ecee9a9c4f73caff73a93ff7657a281bcdf5f98119522029f",
    },
    "occluded_2/NaiveLatent": {
        "metrics.csv": "756d0fa7f8b08d7fc0d50c2a8907d1bfad3d5f8effc2ceb2cf04433c8302e4c3",
        "telemetry.bin": "02f83e4cca06c58abaa228e26e8ffcea8957d23ef036123113ee2ec73a25ffd2",
        "payloads/*.bin": "24013e419417744e20f99a5ab62c33a47b56d6aaf830ad3c2d8e57f9c0b37cc1",
        "entropy.csv": "5aea31889730e8b5b088bc1478abba4bc2c9693e3b6ca8d5966c654d49f2d4d8",
        "sparsity.csv": "ba7973b5b4bd10437f416ff980dcd27dd22bb73a32fa8fbd36f0439d05afcac0",
        "confusion.csv": "aedf2755eab15731a132c70e7de946aed006b6748e4f51296371296e870c1c07",
    },
    "occluded_2/LACO": {
        "metrics.csv": "ac8df7e986ad4630cb5ec54e64f56892d33b9cae9c2fc686d1a3b97d7f53c8ae",
        "telemetry.bin": "48cbcc74eb7d15b3da446df6f0820e5c1d5ac5625c1a0666f0598b8745cdf108",
        "payloads/*.bin": "ea0b0f76663dc1b7bece00f5fef05d56702ddf1c9c32fad21556a59cc2a4ae32",
        "entropy.csv": "923b2bafeffdcd20091ab5b786453c23aa99220dc4f09613d740f42be6136ccf",
        "sparsity.csv": "29bd273c37fb517a240ceaa907f2910d47d98c1eda618bebd38eeab1f3667c96",
        "confusion.csv": "5c26d4a1a148c93357a29433db8b594a97e0e1bbd75d1fe523ded7bb4fe3f046",
    },
    "occluded_3/NonCollab": {
        "metrics.csv": "a634ce8703660434707a2397873e2165a36c3d6b033373bdac469eff49858660",
        "telemetry.bin": "622dd6219456087f6e368bd9449675d992f6b54c156dc81c91b984b41fe6a98e",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "fc06b92c5ad2606cb6178d79f622cf8b17f4cb25628633454036216c9f5bec18",
    },
    "occluded_3/Language": {
        "metrics.csv": "ee331b5dac3f2efdf0541c518df88b02dde66606a1b6f813d498830caeaa90ad",
        "telemetry.bin": "3655f87bf042b4d2e4d82e5749f73dfb2cbb829de09728c6ee895eedf4031b86",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "fc06b92c5ad2606cb6178d79f622cf8b17f4cb25628633454036216c9f5bec18",
    },
    "occluded_3/Visual": {
        "metrics.csv": "aed85cfcd2a68fbfbdd40090eca3ed972b3571f534d8a5f9d27c4595942a49fb",
        "telemetry.bin": "f7a269d47cc4171a8b9e4a852a79ec978877d6f3c93828797adc860984dc451c",
        "payloads/*.bin": "a054eefdb28a24593694c8e8cb59951ae5cb284badebf28ba8fc3596d57cfb43",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "cca791b1b9281283df30d11db12081607361bd27c4240932897a93dfa0652205",
    },
    "occluded_3/NaiveLatent": {
        "metrics.csv": "4a4e8bb5d842e590203d620dab2d4261b82ae14ab3f2bcfefd56b4e732653277",
        "telemetry.bin": "1407b86220564950719c0bb47438d413d8768845cf6ff68ece2649ef4786c2bf",
        "payloads/*.bin": "e3b359b4d3f38cd6d9e23ba7b10b194091fdbdbea90a3a74f32fe9121e684ffb",
        "entropy.csv": "28d5754e7e8b05797a6ed5dba6116734b060504b451cb551575ce5c58bc2aa43",
        "sparsity.csv": "71480524339a407fd46dd9ba34dad2a85f2ea7e47df9f55e8b38694c5c4728fd",
        "confusion.csv": "67375854be69c2dd7ea226b166cc5196353678b4db70cec34267dd9425203900",
    },
    "occluded_3/LACO": {
        "metrics.csv": "1bf96854fc9645ec0b37ce675652174797ef90bf4c812dbd879940bda0cb3b1e",
        "telemetry.bin": "8233ec47fb75615d0ffd4da97d10d962aa0ccf21acc21704ec942094957f13d8",
        "payloads/*.bin": "6c30976d0793848fe3fad54d9dc9b0698244746edc7cf7b58a383b4d23452ade",
        "entropy.csv": "b3ad50394800688d23972462a3c3379dd20f6d1b2202cb95fbafde613b728f4f",
        "sparsity.csv": "280ccda5c4fbe0b4003c172e3f0288f4f0fb161c22ecb12073f64909f6cb8d46",
        "confusion.csv": "7c3f06baef9bc7d5fcf1f786c7364e0ae4fdb1d6c051d73b766dfc9bb95172fe",
    },
    "occluded_4/NonCollab": {
        "metrics.csv": "b7be88f9be7b17439c8acc82465883c3c39083da58f6c33d97575a0379b1407b",
        "telemetry.bin": "78bbd4f0828f4d08226e39a2153745bcae0880ef0c41da8f94f121a16a2409ec",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "39d28b6770e32d40d94ee1e6bbc21ee1e62d2119d23545a2615e847e3fa0292f",
    },
    "occluded_4/Language": {
        "metrics.csv": "10ca472ba09287491dc0d6a23add21c997e4e3ed5831ef60e198a4ec12a47cb9",
        "telemetry.bin": "9dad0e31067a7f17a502ac4d70d25a1613939eec484bfe01fdcf79112616b04f",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "39d28b6770e32d40d94ee1e6bbc21ee1e62d2119d23545a2615e847e3fa0292f",
    },
    "occluded_4/Visual": {
        "metrics.csv": "cc2f95aa25d6de632631c9bfb29a0741b7b35d6c45306dc999b1b241c34b19c6",
        "telemetry.bin": "a37346c3bd4a6de090196258703eaa0de97bd4cec12ff1e2a659a3148bf9e6b3",
        "payloads/*.bin": "dd93338479e570504a91e9b886a5790563dff8d7f8dac23abeca4e5ca7c20fb1",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "ca82e693c66f9d0688f1e7f5bdd16c5f40496e9e0ab1b5e9b9b23c672873103a",
    },
    "occluded_4/NaiveLatent": {
        "metrics.csv": "e3254c792bb860b86ccfdcb72153771e027265f488894cf2d3536eac2957c23e",
        "telemetry.bin": "bcff59412ec03180475a9f260b726d586253c3c2d6b746a9c8c62a55c718f8f0",
        "payloads/*.bin": "07c5596c224f45a159fa1d591c155c270b7dcc4157397df9d4408f8d3b8d3d49",
        "entropy.csv": "a3121c85e658703050db82a77f0483f067e77b297c711e78b2efed6378e52f8e",
        "sparsity.csv": "130f11d183bb10e7d66d217ba6950fc4479baa0e8d32d084e168e436d3d322c9",
        "confusion.csv": "445eee22197b25ac31324f0c5c3573274209d13a477dcb32039afed16e153228",
    },
    "occluded_4/LACO": {
        "metrics.csv": "4e461e0762cdaf1dbea9b6c73b11ca8dc666da057f8c21f44b07c7131f3fe50a",
        "telemetry.bin": "e9bfa62c979ac3844ab3294922654e6186e9c5516279e5b8d44782b21070c7fb",
        "payloads/*.bin": "567e22fbbb7974846a2f4ef075156a5163e51bb3a6cc6a4f336c14c2653fbf18",
        "entropy.csv": "1f8ff0e54b7923aacee1b899ed21df7f57b02735e9286e326db67e897c6b0809",
        "sparsity.csv": "2d656bcfd2d83f330dc54c09463667f9a78a25ad23b1856511b317413265d940",
        "confusion.csv": "a87e0a23c145ddf3fd9343d0ced23a95df7f6c7006cef17d7894cc2634ec0897",
    },
    "occluded_5/NonCollab": {
        "metrics.csv": "ed01c5a048df17f811e3c743d77c45e0b983b2f033552c7e683d6613a0ebb172",
        "telemetry.bin": "23799410f9ff2dec7d564635d693e3a179424c9b17ef87be3e25e7d241e53799",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "5fddd014f031c630c614469ee44f09cd743e72e9e3769a1ae0bb6ea503215cde",
    },
    "occluded_5/Language": {
        "metrics.csv": "cfca96e37b5682f01078e7e20c28c299b854318835988f9facea23f0a3e5c587",
        "telemetry.bin": "57a6ceaf87c291cd9da94c5bdfa8e752d9e674242c8aa84b1de1724413c2d375",
        "payloads/*.bin": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "5fddd014f031c630c614469ee44f09cd743e72e9e3769a1ae0bb6ea503215cde",
    },
    "occluded_5/Visual": {
        "metrics.csv": "640e62cfa9905ac47c951a3cf089850676a4c532e3e295fd3528557d1cb085c5",
        "telemetry.bin": "4d5133f27547731c4c8e9b0f5f56792547d88d4ff5e7b108e4ce02d94fbfc1c5",
        "payloads/*.bin": "3f8e794745449504ae15ce5691c416421b3b35e7a722e6311613cc1bf3612182",
        "entropy.csv": "348a0d5a3d023ebe1d1bbbaada21363f2faa20c403cf48ba0b7123a41e2e4d7f",
        "sparsity.csv": "918ab736df79e52133a58d818debcdfee97e12f136fd38d27830839047d3e722",
        "confusion.csv": "bac275d92fa93206a2c13c53e35a0df95574aa1f03267ffb8ebeb9c7fae51f93",
    },
    "occluded_5/NaiveLatent": {
        "metrics.csv": "d819821865a0b774050a378706af7c79d527c6503b77ebd969ae0819aeb45c1c",
        "telemetry.bin": "db202a87eeffd6bdc232b40b365a4919ed3393808c9aa527e5b4470f8a017fe6",
        "payloads/*.bin": "4f2e99e970bc2c346c7bad6b051b45402b816bce7f55fca5a3f58455d258abcf",
        "entropy.csv": "ab45a37c45163587cd46e1d0e2089a3fea068ada9b672323c86aed4c7947d280",
        "sparsity.csv": "2b44115b3f7558b45972bcc025f9d57beed85006580a5d716f2c55f64686018e",
        "confusion.csv": "1fe394d5ad1d2988c81b2091df62c2f1d91ec0b72ea0afa04af193375c41e918",
    },
    "occluded_5/LACO": {
        "metrics.csv": "9a5782aadd8e855974280cbfd30c118e96827a3953612cb53a2ad9923a288676",
        "telemetry.bin": "1432052d8749ab4c2a19feeb56bb6bd4f7e5b1428b3ff3416dce38285f5ab998",
        "payloads/*.bin": "996eae22badfbce47441cff8d310a07763f4249231782476fdde406678c7d818",
        "entropy.csv": "a12e326069eafe6e3691a8b7e46322c6ef46c2a418d46bf187110228913803c5",
        "sparsity.csv": "29013ac91ce8ed292286521d204f80803467a7e9bb30d7afa2148216ce9e6e07",
        "confusion.csv": "b1bdc2130521c0d8d7d944a71d0ba9c6a0dc50985d5c91dea9ced387e343c7f7",
    },
}


@pytest.mark.parametrize("layout,paradigm", CASES, ids=[f"{l}/{p}" for l, p in CASES])
def test_outputs_match_golden(tmp_path, layout, paradigm):
    got = output_hashes(layout, paradigm, tmp_path)
    assert got == GOLDEN[f"{layout}/{paradigm}"]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    lines = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for i, (layout, paradigm) in enumerate(CASES):
            out = Path(tmp) / str(i)
            out.mkdir()
            lines.append(f'    "{layout}/{paradigm}": {{')
            lines.extend(f'        "{name}": "{h}",'
                         for name, h in output_hashes(layout, paradigm, out).items())
            lines.append("    },")
    sys.stdout.write("\n".join(lines) + "\n")
