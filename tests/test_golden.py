"""Pinned sha256 digests of the default seed-7 runs and their reports.

Every file of the flat and the convex (R = 25 mm) default runs, profile.csv
included, must hash exactly as below. A change to the file formats, the
forward model or numpy's Generator streams (NEP 19 lets them change between
releases) fails here instead of silently changing published runs.

The six SVG figures of those runs (three `export-svg --which` values each)
are pinned the same way.

A ``simulate --force`` that dies while writing any file of a run must leave
a directory that does not read back as a run, and a clean rerun must then
restore the pinned bytes.

The values read back from those files are pinned too, as sha256 digests of
the float64 bytes of the wavelength grid and of each trial's intensity
stack, so a parser that is off by one ulp fails here even though the files
hash the same.

The cells of those runs that lie within 16 ulp of a "%.9e" rounding tie are
pinned as well: they are the ones whose bytes another libm could change.
"""

import hashlib
import math
import shutil
from fractions import Fraction

import numpy as np
import pytest

from lumispec import dataio
from lumispec.cli import SEED_ENV_VAR, main
from lumispec.dataio import read_run
from lumispec.errors import LumispecError

GOLDEN = {
    "flat7": {
        "argv": ["--geometry", "flat"],
        "report": "mean=0.98 std=0.01 span95=±18.0deg\n",
        "files": {
            "manifest.csv": "cbb9e385baaad841ba115aee6094c9150b172a534936b4f9ad43740f2ebc00ac",
            "meta.txt": "5fcf963832a1c6f639b009f587b9b4f12d7f5654ff5b6b8d42ebdfbb8a9ebf06",
            "profile.csv": "ed55f29b57386d62f82f7d0fc0342d4369e5ea717f711beb2171688b56486acf",
            "t0_s00.csv": "531ace092b7569403a971a4ff9d6799987b95de2b0e8d3bc19988871ec8c7232",
            "t0_s01.csv": "a315e025e197fb4052cddf4c35327f357a08b6b8938d335bbbdcba1f59361b0c",
            "t0_s02.csv": "2ab0f490f994ed40f2cb13131d4b67a355966313436a1948384c0b453f1ceed3",
            "t0_s03.csv": "cf74056ef6b6fe61450ec941b3e879dfca71395c0be20063756bbc9a13966c04",
            "t0_s04.csv": "4c4ac1b8bb119aada9408dc4ef5fcda357ae845dc90cde21bfc08178aeec0108",
            "t0_s05.csv": "91eaceeea5fee665331c0fbf0ee5b6b231c01fff358ab5db8a0bf77e9c9e3e7a",
            "t0_s06.csv": "6f456b9f9fc8cfd890d14b72d7fa79b13175ad4644999a6425e292be907b1e90",
            "t0_s07.csv": "67a5c12ed1eeb191156bc979241ce4f6b997c0f501eb3194a7be481dfeb5e1d3",
            "t0_s08.csv": "ba285307967ac8866a65308ee05c141498569d3c5bf8e4456913d6ded8b31f8b",
            "t0_s09.csv": "06fc5eb4f599a722bfc2ebecfde30dce3ea989391d90b144bb7ab4f8ff1fc133",
            "t0_s10.csv": "ddc212da8d8b3415e4986985177670efb3e6a8f986aa7c5adfbe05cc8afbdf98",
            "t0_s11.csv": "8ecf8c5fcbe74ba535a7406601c9b3d6e624142efa409e1584a807546d24ccfb",
            "t0_s12.csv": "ff695b437ac335fe2c00fe467cfa5531987654bffe89a9d3362169bb787c883a",
            "t0_s13.csv": "be630bb0a4928edc2ad93c58e33e401af3fb7b78a44b5625469d7fb04e3b6778",
            "t0_s14.csv": "470c46220f1a7b983147786b259a2c08f2b918463074928f5208c83f1c849c64",
            "t0_s15.csv": "7b48aeda014ee85b3978584d19eba0670c782908ba18ed3e0579ffc376ab083d",
            "t0_s16.csv": "5c7ce823f29ec0852524e96c66af2c25f14b7e23ac0d7a985b1d1ee0035ff2bb",
            "t0_s17.csv": "bf0e774536c94c1f05ed0fbfbaecf6153a2ed336d05ab3a9b2674f48cb8b629e",
            "t0_s18.csv": "c2772e15d309dd25181164522b82ce17b43a6efd79b1fbfabea9f46d554a3c3c",
            "t0_s19.csv": "26c197cad95b89de87e6a2743384a947658d74a5b157d167d84edc55c98cd483",
            "t0_s20.csv": "888b74246d46122c658230fed78ab0e7b46cef011e861c102e265ff37f5752ec",
            "t1_s00.csv": "136e6923b3e6b20e13c6f1ca626902b21e73746afaecd46849b02e5bd0d82378",
            "t1_s01.csv": "b7e4305b92fc8b77846fdc82f0820f0c268f3291735a72d10f092b6823ef4d4d",
            "t1_s02.csv": "b59fc6dcea6c1c060e60863cb619b1e8532649b616cfba9bb77b10fa28fdf15b",
            "t1_s03.csv": "b328f970e83f6ed3417bb636b8c4c6f452320f00f9ed2a7c89526d63d4896296",
            "t1_s04.csv": "6668f10725c315f19f57d9ef26dd6977058f27543aa52364882118602c7b5d71",
            "t1_s05.csv": "b5113476d83e91ac6d863966ad308df913302f0102a5b2755dc835ed318c0f80",
            "t1_s06.csv": "35a112b7e0feeafa009670c984fb05a0f5de4bb89ac9ee4e71df9b9468c4b6e9",
            "t1_s07.csv": "c628d6fe1297eeda72e49167e6ba048ec1c499641b139ef89b728582ec6a7fe3",
            "t1_s08.csv": "bc830371377ab25c6bae8cfaa0386fdd79db3ca036558d0bb544c249caf14548",
            "t1_s09.csv": "fa9be2d940ecd51c60d6929f6869efe4b16a742773e9ffb638548f7ce972cbc3",
            "t1_s10.csv": "592b22e4ffaf8a6d614429846cb4959f7c02958a029682b058631d1eed394d19",
            "t1_s11.csv": "8448e3b96cc250589bf54b4d75064ff5fb498227c19b7da0a51cb1de9f1a88f1",
            "t1_s12.csv": "1641adad2b9325691be596e7f5862dcc12bd43ba43f75e2f959b7ad139f5a5a1",
            "t1_s13.csv": "2895aa2e0b96fcd94ef9cd235960f51acdbf122cbcd487a1f7331c8a34543773",
            "t1_s14.csv": "f323bca5dc7088a5490e9e5bfd7e36d8ee8d8a25ca8eac43fbf74bb28dc77c76",
            "t1_s15.csv": "1ff3c39d0d5570cdeb268a8b822f07c83219ea4388d6415cb43d246ac8d561ff",
            "t1_s16.csv": "04ecb1b6d1f639dba483cfbfb6333285c31230010d6e52855a713a84cea7dd24",
            "t1_s17.csv": "631d73f6e08269a3eda9cb5b75a8fab6c876cafe443ce2048118bd23bc9bfd8f",
            "t1_s18.csv": "aea1383cec4fc06bdd0c3750213f1593551ffbbc2cf59f4d224a77286adc65cd",
            "t1_s19.csv": "9d42760ef414011dc427a0781c4277086e6ed68d1292452cb692f0e3d30e6e12",
            "t1_s20.csv": "0265f0677e6f0766d9fc2509e4c073cf9c486eb66191236e6369dea4aee3c925",
            "t2_s00.csv": "e3842c0dfb99132b8381842683998d6dcf549a1c10b64bcc4fb45e54b536f942",
            "t2_s01.csv": "a157366cad92b0fcae44d320a615854dff27ef010b185058e8f0414cd21483b2",
            "t2_s02.csv": "0fcce403c6fc3c70de9c7e7d5bd878d9a0360fa4fa257a48a3c21eaa94df3393",
            "t2_s03.csv": "564d021512d5c0928cff9cc059b09d0d55fefc4d574952074b65be246364eac1",
            "t2_s04.csv": "0887791bd8b07bfb8e58d003b2fde6fbe69d220bae36d68899daa0c95ff0fba4",
            "t2_s05.csv": "7a475ae13e18b651e4b988c4799b32eb865b4d8b941e4d9111022f0b0783a22f",
            "t2_s06.csv": "f7a23cc1cb81c1a080c4cfc54250a6b216c6cc3db8a319ebe95e2cbc481a3861",
            "t2_s07.csv": "c861a3d5d97a31b67e8524f398da9d19dda6e4bce57f93037066142e82629af0",
            "t2_s08.csv": "a7afb8e69a30f689c46326a5b5c5f6e33be9c2617f7c8adbffdcf140f6e7591b",
            "t2_s09.csv": "687012b15899a3ba57820deaeaaac5499eacca352b4434a8385d72b2f59770ca",
            "t2_s10.csv": "c6878c3a8e6016138c34860f2ad5004845e6b232273f59e690c11fbeee7e7eae",
            "t2_s11.csv": "8ccac7b4a69596083333348a5c28875f10d0e03265abc5e04a4053c55a1db15b",
            "t2_s12.csv": "7a2ae22e330d5b530dd03f2a7fef54d9b30ade43a8d9f6f0abaa3e328a5338f0",
            "t2_s13.csv": "897559937c3cbd39ee94fa2da80017ff14218e4841f0b9ef64acbd5e4d8cebe6",
            "t2_s14.csv": "4f1658a785054cde1d1d2222f5fc9ebb5a5c2323bf42748c77f82630ce5ff046",
            "t2_s15.csv": "3a6870cc949fc05e07aa595ee727ac818f9c6e0733522ddeec2d81b00a49b6d8",
            "t2_s16.csv": "05afd61170cf53983607a97ae5b763b53a1a8cef54a50c59f6d38b1642046f11",
            "t2_s17.csv": "b3cb6cfdbcb5a5496f4dcff84e89dce198898d9b523b4500005a290ed484272f",
            "t2_s18.csv": "475865ab99db979a4517f1421630406ae9566a4b8691dbc92d4ceea8deef4a88",
            "t2_s19.csv": "b21461365f898b4d7e2c3f8b5e8a06e668fd15f597f16942cc69068e61fc1eb6",
            "t2_s20.csv": "75390a7a7ead62987a1d44b3bebc064de11974c461531f938d1b5af737b9a4c5",
        },
    },
    "convex7": {
        "argv": ["--geometry", "convex", "--sphere-radius-mm", "25"],
        "report": "mean=0.97 std=0.02 span95=±12.6deg\n",
        "files": {
            "manifest.csv": "cbb9e385baaad841ba115aee6094c9150b172a534936b4f9ad43740f2ebc00ac",
            "meta.txt": "9e6497c93e9a5df0e51e329081e6a07bd8d1bc47d14f8bb678cb0c684d99d9cc",
            "profile.csv": "f64f1504dc68d3a68c7b3a221ba794cd40a355cd33ea50548791fc8ed987437c",
            "t0_s00.csv": "b6c9e421fe6541caed273ff2ed85ecde133ef2f81c171adbe4ed3c7952eb558e",
            "t0_s01.csv": "e0f195d2e28a9c956efacf640ed48acbb7ab5ecd510dcf858078cd14dc27d45c",
            "t0_s02.csv": "85bba94c9954e4347e62006a7e4393fd1e4cdd3a15edf03f4bd3d1289fc2d3cf",
            "t0_s03.csv": "e005326fe01ff19653e44fb2c5c67d7fd3b57ed5eb5a9c2b42aa6dba415ed092",
            "t0_s04.csv": "13618da68f1d4a106380b36cdc984aa41f3bc44364926aff0bb83f0042dcf152",
            "t0_s05.csv": "9b23abfc95ba7d491dfa5430effe382dfad5912cd90abb40e82a2e2e14cf9882",
            "t0_s06.csv": "a24060082888c3a68d1c2f58e403c06cb5de8ee96faea3b75cb389d50bac2fe5",
            "t0_s07.csv": "c5951de4aad83cf0e64cc1b7a0ec9e56bba828785ca173f3eea2efd9baea1c64",
            "t0_s08.csv": "99d83e67a8adc0efaddc802e812714d77b4d8bfa2b9d2387ef39315c258b1684",
            "t0_s09.csv": "19c13a491b1ade7422c82106b6857779128d581ffe9963c495a394f822e6697d",
            "t0_s10.csv": "ddc212da8d8b3415e4986985177670efb3e6a8f986aa7c5adfbe05cc8afbdf98",
            "t0_s11.csv": "5a82c9aad24f36b581aaa19cced90ecc62cbd26b105aae860fb66d28b0d70e21",
            "t0_s12.csv": "e775e7b51cfe9adf702651d99a853c885cfbe15b7749791565641c3fe6bf8189",
            "t0_s13.csv": "07fa995463c2e8919bd8304bb0876523433cf136b151177e32b2001f9f2ccec9",
            "t0_s14.csv": "33f14e3f13b216300449ea20cdc169ac144fca32922574776e1be0523fceb9fa",
            "t0_s15.csv": "d31d43b009f0178a5858e5ec1ee25056cd2909c697b2a892010c7efed2cef4e9",
            "t0_s16.csv": "077b5929793d3492ac9d2dab4720b0cb7f55445b3446864155e7f7583b0ca561",
            "t0_s17.csv": "b2ed4c9c9559ab4b0d773e70604a04d0560cd25bd81f24032cf4ada6a4cb2e6b",
            "t0_s18.csv": "09c71b61573106d7270152de85e1671b14e75618dc8d85f5de879a396a31c48a",
            "t0_s19.csv": "b8bd804aaff38fa07f90cf0877c86c2f6d1e20ac693d9a83af58b0134eb780da",
            "t0_s20.csv": "b9f2fabec169caf7e4bb662cddfb7afad1f54824a2b6a35decc2edbf37f745e9",
            "t1_s00.csv": "296cb69ac56339df57599b9da2ebcf382641ba76381b6f6fab7665058ed9c0f1",
            "t1_s01.csv": "c0b39252de7020f2ef5d19beed6324ca62036554bc804c15df7089a371f33b7b",
            "t1_s02.csv": "cd6c35e6959793c48827c226ec7824e76f0439d5a361e2a147e5d90450805ecb",
            "t1_s03.csv": "7c100e9bd435e39d8c218c55e00f26a96aed17dec27a415ebf9ed33064bbff3e",
            "t1_s04.csv": "30fe5423e002fcbebbb002f4efb02e9cfc691b9bd6d6ee88521fcb13bbf657ab",
            "t1_s05.csv": "9ec1e5b2ca63f4587c9b9d2f89260e5e3fe7ed17782a1b902a374dcfc4996bac",
            "t1_s06.csv": "ff52736ab93b785ece5ce2f3680a06efb14faf22551d4baf7c77b48991c88d01",
            "t1_s07.csv": "ab729e182940a51282a744940e89727a73a8da0965afe86adf4b74201aa65554",
            "t1_s08.csv": "0422f486588b154895a5d69d2ed736a96ac47ccb82090014afc7961bdd285108",
            "t1_s09.csv": "337c42d1405445727b5ab9aa67c8fdd43bd7abccd8b3c99316466336f3965154",
            "t1_s10.csv": "592b22e4ffaf8a6d614429846cb4959f7c02958a029682b058631d1eed394d19",
            "t1_s11.csv": "a9336c3e29487c8a2f8a4cb0f29e772cdc44bc495ecf15923c9ab041b9a55218",
            "t1_s12.csv": "0f683d56d81764f1df621b15d80c84cc4e332b3bbeb3d8740a4f449c51e26c03",
            "t1_s13.csv": "ffde2ed11cdf432978be5d502ceb4557371a903ad8e6409021ef0961bade0d68",
            "t1_s14.csv": "a92a4464be607e747526c206876afce8f285649bc95c95b62801a86f44f0710d",
            "t1_s15.csv": "d10b5a2d383ee726ef4c22219f2249c82e871970bfe09212a13977c49b39187d",
            "t1_s16.csv": "63d039aac9b6f40fd0e318b8b01a37fb7fc146a60232fac110a3ebd54fea812c",
            "t1_s17.csv": "fc223413ae9d9de9c0d5896ea4e334da469794ff97972e9fe3d3d1574512de9d",
            "t1_s18.csv": "a438a17ad40906b19d18f8bd330355e3ba9b254c6ede9471f2e339afdbec0348",
            "t1_s19.csv": "1e54d2e4455c28cd5141c512e676b9f9bcf4b16b72678b71b75bda1fa667b23b",
            "t1_s20.csv": "9125464a7896909ceacbde78c2bc75803e04ca0cfe1c29e9db10c5b097bc00f8",
            "t2_s00.csv": "28516dcb73ae8c52a281ebbc4b0ead62080f109abc50edfcc24a607c8a0c7f45",
            "t2_s01.csv": "c2161da5d9d0325329fa336fcb73ccec28d1eb7754c7df1d733c99bc65ef7b80",
            "t2_s02.csv": "3c47a7974812f60181387ac7790e1e9c48b1617e7c195b5362400cb932ed80de",
            "t2_s03.csv": "06d761267e34c438d7302d23b9a751122e123b759da492c6e5a1c8fb4ad67286",
            "t2_s04.csv": "df5796b695c28f737057cd01ece96a693f82d9c95a96783d5a06756277148657",
            "t2_s05.csv": "0ffa9e20c2c8964a6b9d1515d46745d085508756b1c1ef81f1067ea9a1a5b7a3",
            "t2_s06.csv": "26203d9d7c7c0203569875ec20a8da090280048a3de9a900fb07ada4fb2b7817",
            "t2_s07.csv": "4c3e936d3a5254898a797f54f7354d1862631749ac0aaf9d980fcc46495b1822",
            "t2_s08.csv": "266129d6d046afb70b47bcd3715f6a08e5ee6181604c4eb963be6aee739dda33",
            "t2_s09.csv": "94e761184f4dbda326896cfc4788ff1c0142508c9458c676e06acf0d12838cc1",
            "t2_s10.csv": "c6878c3a8e6016138c34860f2ad5004845e6b232273f59e690c11fbeee7e7eae",
            "t2_s11.csv": "a5f53e3ff90d3cf6e0bf2f9e2c557e33b48f1b931cc8835c7a30bc762b21b0e2",
            "t2_s12.csv": "419781980d5ddc00ea49ffdd1d867b00d4883b196db92a83b91ace5122b9671c",
            "t2_s13.csv": "506501bd73519c12626488afd7c4f875d5b970ed5b78737be47ff6c8cbfa8e5b",
            "t2_s14.csv": "a93c96445f4ad76e46731de1b7954a921b00f2f5043226b87e57baa64c36c981",
            "t2_s15.csv": "c5adbecfc4126569b5d48714bf09dab8ed349d8e8ad1c6abd372206bf7513efb",
            "t2_s16.csv": "667a9447c9f18a1a2fc77a6a4729131291b2cc040edf4d9e493d17bec472032b",
            "t2_s17.csv": "5c980dc4d26c02b8bb682c15045de2651918d7087129fc6b7b2fe48cfa45b25d",
            "t2_s18.csv": "2a8ef78b754b83fd075cfa434f29aa25bd6a931cc5259e243bdb2ca36427bf83",
            "t2_s19.csv": "e59986b0489692406b14fc717f80bc6919073f94d19ddfdade21eadfa891f37b",
            "t2_s20.csv": "d946478618a73f2177140f926c83007535760885fa04f3b10db532961a27a120",
        },
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed7_default_run_digests(name, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    golden = GOLDEN[name]
    run = tmp_path / "run"
    assert main(["simulate", *golden["argv"], "--seed", "7", "--out", str(run)]) == 0
    assert main(["analyze", "--run", str(run)]) == 0
    capsys.readouterr()
    assert main(["report", "--profile", str(run / "profile.csv")]) == 0
    assert capsys.readouterr().out == golden["report"]
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in run.iterdir()
    }
    assert digests == golden["files"]


GOLDEN_VALUES = {
    "flat7": {
        "grid": "916e7718b84fa21b48bd6ba5859c7368368e95e8023c8beed904ad19206fb745",
        "intensities": [
            "1cf4d8964b964fb888bcda26c0d7247fbac31dd1e48b6a88f70d009bee025c87",
            "bc87b285564faabfba6d30fde9c49c71d0193153e683a87ccd4ec8bb14ca32ee",
            "ca6f74279c35c2d9f84fb2d8c26f35f91b52a26b346885a7eaf5ac1410d732a4",
        ],
    },
    "convex7": {
        "grid": "916e7718b84fa21b48bd6ba5859c7368368e95e8023c8beed904ad19206fb745",
        "intensities": [
            "f67f377e2071639eae7a04ea95c3042b2430e91178e389151e0511bee226bc36",
            "0313b7fd4890e667029a1f646f81f076c2c2a7583af92f4f77a54e23788f07c0",
            "3dfc150cddf93a25fcdc58bc4d03b1e0d7d5ffe650506b662b621305bd6c18c7",
        ],
    },
}


def _digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_VALUES))
def test_seed7_default_run_parsed_values(name, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    run = tmp_path / "run"
    assert main(["simulate", *GOLDEN[name]["argv"], "--seed", "7", "--out", str(run)]) == 0
    capsys.readouterr()
    records = read_run(run)
    assert [_digest(r.spectra.wavelengths_nm) for r in records] == [
        GOLDEN_VALUES[name]["grid"]
    ] * len(records)
    assert [_digest(r.spectra.intensities) for r in records] == GOLDEN_VALUES[name]["intensities"]


GOLDEN_SVG = {
    "flat7": {
        "spectra": "b17cc5052ea2e7359730cb673d10565ce4eb5da0ad2f84c47df3cad18c9cbacf",
        "spectra-smoothed": "c6ad1c067e130d3d5962010e14130ed1e05a5d64c5c685c9bd0def8122f61d4e",
        "profile": "9dbce034aa16c0250afdebe7b69ddd014d58366dde43c820d4eb0d33449f1c20",
    },
    "convex7": {
        "spectra": "9ccee2759cb8439fa4d7d10804a2806cd9f9bbbc15a9ead5dcc121437630a58f",
        "spectra-smoothed": "75b793d9fd1a10ab406629bf07d9662616f064c84a9d6aa855028fb00cfb0466",
        "profile": "2051d4d31122321433c07a24eda14a4fa69799f4cfe0c10aab6c6152880dc7ae",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SVG))
def test_seed7_default_svg_digests(name, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    run = tmp_path / "run"
    assert main(["simulate", *GOLDEN[name]["argv"], "--seed", "7", "--out", str(run)]) == 0
    assert main(["analyze", "--run", str(run)]) == 0
    digests = {}
    for which in GOLDEN_SVG[name]:
        source = ["--profile", str(run / "profile.csv")] if which == "profile" else ["--run", str(run)]
        out = tmp_path / f"{which}.svg"
        assert main(["export-svg", *source, "--which", which, "--out", str(out)]) == 0
        digests[which] = hashlib.sha256(out.read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == GOLDEN_SVG[name]


# The intensity cells of each golden run whose exact value lies within 16 ulp
# of a "%.9e" tie, as (file, line). Such a cell prints differently if the
# value moves by a few ulp, as another libm's cos or ** may make it, so its
# run's digests hold only where those return the same last bit as here.
TIE_MARGIN_ULPS = 16
NEAR_TIES = {
    "flat7": set(),
    "convex7": {("t0_s01.csv", 201)},  # 499.5 nm: 0.41 ulp above the tie
}


def _tie_gap_ulps(value: float) -> Fraction:
    """The exact distance of ``value`` from the nearest "%.9e" tie, in its ulps."""
    x = Fraction(abs(value))
    e = math.floor(math.log10(abs(value)))
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    quantum = Fraction(10) ** (e - 9)
    tie = (math.floor(x / quantum) + Fraction(1, 2)) * quantum
    return abs(x - tie) / Fraction(float(np.spacing(abs(value))))


def _near_ties(values: np.ndarray, ulps: int) -> np.ndarray:
    """Flat indices of the ``values`` within ``ulps`` ulp of a "%.9e" tie.

    A float screen keeps every cell within 4 * ``ulps`` (its error is about
    one ulp), and each candidate is then measured exactly. A zero prints
    exactly, so it stands in as 1.0, which does too.
    """
    v = np.abs(values.ravel())
    v[v == 0] = 1.0
    e = np.floor(np.log10(v))
    y = v * 10.0 ** (9 - e)
    e += (y >= 1e10).astype(float) - (y < 1e9)  # log10 may miss a decade by one
    y = v * 10.0 ** (9 - e)
    gap = np.abs(y - np.floor(y) - 0.5) / (np.spacing(v) * 10.0 ** (9 - e))
    candidates = np.flatnonzero(gap <= 4 * ulps)
    return np.array([i for i in candidates if _tie_gap_ulps(float(v[i])) <= ulps], dtype=int)


@pytest.mark.parametrize("name", sorted(NEAR_TIES))
def test_cells_near_a_format_tie(name, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    written = []

    def write_run(records, run_dir):
        written.extend(records)

    monkeypatch.setattr(dataio, "write_run", write_run)
    assert main(["simulate", *GOLDEN[name]["argv"], "--seed", "7", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    stack = np.array([r.spectra.intensities for r in written])
    trials, steps, samples = stack.shape
    near = {
        (dataio.spectrum_filename(i // (steps * samples), i // samples % steps), i % samples + 2)
        for i in _near_ties(stack, TIE_MARGIN_ULPS)
    }
    assert near == NEAR_TIES[name]


def test_tie_screen_keeps_what_the_exact_gap_keeps():
    # 81 floats around each of four ties, the last the top tie of a decade.
    ties = [1.0000000005, -0.31705209755, 7.0000000015e-4, 9.9999999995e-3]
    values = np.array([t + k * np.spacing(t) for t in ties for k in range(-40, 41)] + [0.0])
    exact = [i for i, v in enumerate(values) if v and _tie_gap_ulps(v) <= TIE_MARGIN_ULPS]
    assert list(_near_ties(values, TIE_MARGIN_ULPS)) == exact
    assert 4 * 32 <= len(exact) <= 4 * 33
    assert _tie_gap_ulps(1.0000000005) <= 0.5
    assert _tie_gap_ulps(2.5) > 10**6


class _Crash(Exception):
    """Stands for the writing process dying before or in the middle of a file."""


def test_crashed_force_never_reads_back_as_a_run(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    flat = tmp_path / "flat"
    assert main(["simulate", *GOLDEN["flat7"]["argv"], "--seed", "7", "--out", str(flat)]) == 0
    convex = ["simulate", *GOLDEN["convex7"]["argv"], "--seed", "7", "--force", "--out"]
    pinned = {k: v for k, v in GOLDEN["convex7"]["files"].items() if k != "profile.csv"}
    write_text = dataio._write_text
    calls = []

    def crash_on_call(k, half):
        def crashing_write(path, text):
            calls.append(path)
            if len(calls) - 1 != k:
                write_text(path, text)
                return
            if half:
                write_text(path, text[: len(text) // 2])
            raise _Crash(f"crash on write {k}")

        calls.clear()
        monkeypatch.setattr(dataio, "_write_text", crashing_write)

    # No write has index -1: this run only counts the writes.
    crash_on_call(-1, half=False)
    shutil.copytree(flat, tmp_path / "count")
    assert main([*convex, str(tmp_path / "count")]) == 0
    n_writes = len(calls)
    assert n_writes == len(pinned)

    for k in range(n_writes):
        # Half a file, or none of it: a crash between two files must not
        # leave the old run's remaining files to complete the new one.
        for half in (True, False):
            run = tmp_path / f"crash{k}"
            shutil.copytree(flat, run)
            crash_on_call(k, half)
            with pytest.raises(_Crash):
                main([*convex, str(run)])
            assert len(calls) == k + 1
            with pytest.raises(LumispecError):
                read_run(run)
            if half:
                monkeypatch.setattr(dataio, "_write_text", write_text)
                assert main([*convex, str(run)]) == 0
                digests = {
                    p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in run.iterdir()
                }
                assert digests == pinned, f"rerun after a crash on write {k}"
            shutil.rmtree(run)
    capsys.readouterr()
