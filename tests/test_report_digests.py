"""Byte identity of the command-line reports over a fixed request corpus.

Each entry of ``DIGESTS`` is the sha256 of one request's exit code and
stdout.  The corpus covers every bundled game under ``audit`` and
``equilibrium`` (structured and text) with each scenario selector,
``oracle --grid 41`` (structured and text) on every game, and the same
requests on two inline games: ``conftest.THREE_EQUILIBRIA_VCG_GAME``,
whose audit has three sections with the VCG-like conditions and a
declared separable base, and ``conftest.QUARTIC_GAME``, whose line
minima all go through the roots of a cubic derivative.

A change to the audit pipeline that is meant to keep every report as it
is must pass this table unchanged.  After an intended report change,
print a new table with::

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from incentive_audit.cli import main

from conftest import GAMES_DIR, QUARTIC_GAME, THREE_EQUILIBRIA_VCG_GAME

#: the inline games by request name, which stands in for a file path
INLINE = {"quartic": QUARTIC_GAME,
          "three_equilibria_vcg": THREE_EQUILIBRIA_VCG_GAME}

SELECTORS = ("baseline", "incentive", "optout:1", "optout:2")


def corpus(games) -> list[str]:
    """Requests as space-separated argv, the game name in place of its
    path."""
    requests = []
    for game in games:
        for sel in SELECTORS:
            requests += [
                f"audit {game} --format structured --scenario {sel}",
                f"audit {game} --format text --scenario {sel}",
                f"equilibrium {game} --format structured --scenario {sel}",
                f"equilibrium {game} --format text --scenario {sel}",
            ]
        requests += [f"oracle {game} --format structured --grid 41",
                     f"oracle {game} --format text --grid 41"]
    return requests


def write_inline(directory: Path) -> None:
    for name, text in INLINE.items():
        (directory / f"{name}.game").write_text(text)


def digest(request: str, inline_dir: Path) -> str:
    argv = request.split()
    game = argv[1]
    argv[1] = str((inline_dir if game in INLINE else GAMES_DIR)
                  / f"{game}.game")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


DIGESTS = {
    'audit decoupled_demo --format structured --scenario baseline':
        'd491dd3b1cdee985f29b70b757ba61e292879259393945c6b1401797e2f91da1',
    'audit decoupled_demo --format structured --scenario incentive':
        'd399d81580f9384686b5d98f6c0dfa43c1157c7233bcdf8bb788a854bb0e8a06',
    'audit decoupled_demo --format structured --scenario optout:1':
        '0d9c3be86f619af596bbc51625e069114aad38013efc416b3abd8976b2fad7c4',
    'audit decoupled_demo --format structured --scenario optout:2':
        '4d3da57c3b1bd6ba75b7dd50fc413756a9e6d7028d8d7207955f0d01ec6f12b0',
    'audit decoupled_demo --format text --scenario baseline':
        '2dd3e009872b78c48a2353f8f471c1e97ede3372a3e7b7ceec426cbee0f9b9c1',
    'audit decoupled_demo --format text --scenario incentive':
        '7100a97a105c82a1bc8616918c98265dfe55da18244020209ab38b90e9000c4c',
    'audit decoupled_demo --format text --scenario optout:1':
        '8e95c61b2b41737aa98907f55ba62622f80a34eb4cd8df39e16dde0de3bd2536',
    'audit decoupled_demo --format text --scenario optout:2':
        'd90fe497ddef476659dbd6f08adcf497dd16445d27c08dd867bdf93a960f58e8',
    'audit example1 --format structured --scenario baseline':
        'f9762293dcf72dc5369e35dbb5667414c7a912995fe5e4b2007b79504948888c',
    'audit example1 --format structured --scenario incentive':
        '0da3df277d844f522101971ecd7f2657ed45903dcb636a11d4f7279eb56f64f9',
    'audit example1 --format structured --scenario optout:1':
        'd5d680f52c3f5fa6228ecca24b2c5a8a30346c1d2870f536997d2ca30d40051f',
    'audit example1 --format structured --scenario optout:2':
        'ff3e5693c65bc8025144038a40793d91cbf5d9ebf3ed33a7eda994e92fef3d1a',
    'audit example1 --format text --scenario baseline':
        '5d0d8dbc27572f4e5b8ff8ca8f4a5d54474c7b66b4c04940c500bedf8bc9db8c',
    'audit example1 --format text --scenario incentive':
        '86458d36673e9b162bd849316c5ae0b3e7110b5cf2c3dd0c9e409dc677862821',
    'audit example1 --format text --scenario optout:1':
        'e3876dacf55043475050089440447db8170daf7ba73a9526f18a09c825b59649',
    'audit example1 --format text --scenario optout:2':
        '4daf7afb9ffd4aab27c579b9193728c97854a905a7daa5a4d5c069f6c55a972c',
    'audit example2 --format structured --scenario baseline':
        '95db6ef3c279bbdcb1da13527c689a243571076e15c2131d52ef12aa4b7ad308',
    'audit example2 --format structured --scenario incentive':
        '64b43dce7cb0b4c7e3d197545ab414ff60dfbe0ce89044e51f7f2cc83a17625d',
    'audit example2 --format structured --scenario optout:1':
        'ddfd16af3461b1b38ed880d9e0be7d9c95cfa2754a1cd7d49bffa9d16ababb39',
    'audit example2 --format structured --scenario optout:2':
        '9469a252f3164f3d25ad63e945e12d1104d3e1abded3fa2c82d79df9287bb03c',
    'audit example2 --format text --scenario baseline':
        'f1a6517651bfccf10df12eef2174d4247a8d3bc44ab6947e88f32918cbad60a1',
    'audit example2 --format text --scenario incentive':
        '6c6f9ac480c16004b407125b5496126a88bb25cc451dc6b6a74dc4c4af0eed97',
    'audit example2 --format text --scenario optout:1':
        'e679c7934cac81c2dccd26d2a764b01a2b511914bca45402de886bfc5d3e6204',
    'audit example2 --format text --scenario optout:2':
        '907f37fde4e5f30b92620729a7bdca25519c5eb49f61cc34a03db59f5b0d110a',
    'audit example3_case1 --format structured --scenario baseline':
        '1a247a14c551b2af0410ce114b41f7242dc5a4d4568dca263439bdf65cbd1e46',
    'audit example3_case1 --format structured --scenario incentive':
        'a9861f2139617123d12aeb8bce2e7d684f54524fb1fd0ad81783c856723479e6',
    'audit example3_case1 --format structured --scenario optout:1':
        '4d360bc143dc168003226aa4e72924c50164caa69c89a45c12904a656d15966e',
    'audit example3_case1 --format structured --scenario optout:2':
        '7d81c9c34be2c978be15a6d0674f2b97e562ad03f166358016e24c76d895ffd2',
    'audit example3_case1 --format text --scenario baseline':
        '7f070a8e404d35533b36fc33d8f29e7b392f711de7233125707e6d404d620437',
    'audit example3_case1 --format text --scenario incentive':
        'fad4ff0e5a726eee6503fec51fb0adff5194d62d89aadad4e6a93101295a258a',
    'audit example3_case1 --format text --scenario optout:1':
        '7e0b48ca982eb82fddf31f69805347c98b92d1e0bcbb07db8d9d1ccc477d5f41',
    'audit example3_case1 --format text --scenario optout:2':
        '947e7df332884372b5a6518df0d9d1fe876e9ebb347fbb781d8f23ec2f6acad9',
    'audit example3_case2 --format structured --scenario baseline':
        'ea2a68185af840db6dd6579d1f4d0361fd7f16e316a372ab3c79d5c99d3c72fa',
    'audit example3_case2 --format structured --scenario incentive':
        '5fd36e314c326a71388d1857d9e9beccb7b7ee3773f56c2744c3bc17efb024bb',
    'audit example3_case2 --format structured --scenario optout:1':
        'f0b566e88a20ddd790b9b50c87306613170b89492e3cb12a026722093212a9e7',
    'audit example3_case2 --format structured --scenario optout:2':
        '48425506e7380ea5ba1c18436923ed95ba36482db05bab57340fc94552d7845f',
    'audit example3_case2 --format text --scenario baseline':
        '817f55eacfdece2f5fc6848b7a7a25d76306bf702d8641e7a2127165ddccbcf5',
    'audit example3_case2 --format text --scenario incentive':
        '26aa2c6266bbe05b907d8278ec1b0a56a53568c8111c0ff4a766be4f91fb12af',
    'audit example3_case2 --format text --scenario optout:1':
        'e91ec2d4d050ee81acd7ac1658cd2cdf7ed92776f6a44a3c74b057048c3183a5',
    'audit example3_case2 --format text --scenario optout:2':
        '786a51c28c7ebdbc72a6f7b262b58ef043b168893636d0a7cae256b4e8f92e39',
    'audit quartic --format structured --scenario baseline':
        'cb9a062c0d7419dc300e22f312545695aa86dafc729c30cc76fac67d687d752b',
    'audit quartic --format structured --scenario incentive':
        '9ae1454880b1a10b5787d5a6a86d6d7e88ef7be5392f526a619e23564cafbd85',
    'audit quartic --format structured --scenario optout:1':
        '92b2a932109df3a5c39ca11b33e9662465e15c5f4462350f2d2152620d1e191d',
    'audit quartic --format structured --scenario optout:2':
        '58110672b234901ea76c072cd8828ee7c3b3e033e0a7e74fb9ca7f560e9eb16c',
    'audit quartic --format text --scenario baseline':
        '4802f705dd3c2efe3707a6ba49e53c1dfa9a2a379a4a2846028523a4f54f9e2a',
    'audit quartic --format text --scenario incentive':
        'f47617c573719516716ffd50ce10001801f815fd388750ddd97ed4627986b82e',
    'audit quartic --format text --scenario optout:1':
        '6868d24dc2d5ed6806dae053e765275bed2389675431c72f6b95b9640c83202d',
    'audit quartic --format text --scenario optout:2':
        '271c56fcfb4f8d806a33f7afa16f39216d18c81010496a0f0376dae41dc72313',
    'audit three_equilibria_vcg --format structured --scenario baseline':
        '682b7753456a2e89172b979dff57ca0ae0afb491341a8429c2e5e076cdecceb4',
    'audit three_equilibria_vcg --format structured --scenario incentive':
        '084a16ede3535c78b393bfea45efc016c9619795cd1c75813ad1f3c69ed7ff9f',
    'audit three_equilibria_vcg --format structured --scenario optout:1':
        'cc41982f4fe53e1ae211c0a2a4f67735e63e3baa509bfcb69c431e7f9d9f51b2',
    'audit three_equilibria_vcg --format structured --scenario optout:2':
        'fc077aea3562896c1ffffac65b01c465545725ab5813fabd0bf1466246a6c069',
    'audit three_equilibria_vcg --format text --scenario baseline':
        '226ffc567731225a3ad89f0d76e124641a1965e52ab761e29dd89adc037ed508',
    'audit three_equilibria_vcg --format text --scenario incentive':
        'd02257b9e62256a6f47443889c53e8ef01258493ecf6f0af4f63a22b43853859',
    'audit three_equilibria_vcg --format text --scenario optout:1':
        'e5e9088f4a0d17f0fe9f4e21a09010d3486010ed82663ea5b0bb56da67cb5d07',
    'audit three_equilibria_vcg --format text --scenario optout:2':
        '7a92c57fcaada5fdd5bd9cde431d8e29f3e54ba91ae962482ddd2ea5075edbda',
    'equilibrium decoupled_demo --format structured --scenario baseline':
        '90db8002a7763603af8df90cb6a926223b523d1ce2f7789ae28f97f04d8441d5',
    'equilibrium decoupled_demo --format structured --scenario incentive':
        '177cf906264f9f0442c5e7ef8ce2fc265450a4af25990959d8dafb6ad5859bd3',
    'equilibrium decoupled_demo --format structured --scenario optout:1':
        '13b4c5f21c461abfa275e9ee79ff57c87779c2aabb18409c6214244c75f82767',
    'equilibrium decoupled_demo --format structured --scenario optout:2':
        '1f81267ed2f3925f944d9f8b375081b8a45635cb874561a56b324d1981d1ef99',
    'equilibrium decoupled_demo --format text --scenario baseline':
        'ac4e38feea9789701101697d38f188d2735dc280a17a939694694c602f4256db',
    'equilibrium decoupled_demo --format text --scenario incentive':
        '1c33c2aaefc58ef081c08dcf9d16d13b862bc5158084a5d0c7f1b62c3a1897ee',
    'equilibrium decoupled_demo --format text --scenario optout:1':
        'cc0ca264246cf3e4f1aa53bf390e0a16e749f0d82ec254fd08b89670b9c34f07',
    'equilibrium decoupled_demo --format text --scenario optout:2':
        'c2879f34fcf05c9b6997a9482628f9dbe57718a958c58af3f3c646a0e139cbc7',
    'equilibrium example1 --format structured --scenario baseline':
        'be94caf10b502273c3b1e74fb86fe8f2ef5d3cd8755e5930c9b984249e369676',
    'equilibrium example1 --format structured --scenario incentive':
        '8559a6f53fa234470c7a69daad683f5f434ab291bd7a255d5fc8b827ce61a5ce',
    'equilibrium example1 --format structured --scenario optout:1':
        'dfa8937660845557efc4494003bbd594003742d0fbbc7d335cfdd948c5fd5a6d',
    'equilibrium example1 --format structured --scenario optout:2':
        '79568d2d716865c0bfb0a9135da4b8ebb3e92512397146e78e4c4642fc8ce110',
    'equilibrium example1 --format text --scenario baseline':
        '8d0fa34cc4d70b5fba31e92f09e4e8dcf9180d05bd235b606bc4a7ed8bb1129a',
    'equilibrium example1 --format text --scenario incentive':
        'd85a6f27f20bd4ca52550dcd2402842c21444adca4b66a25b79a40b06aa6e162',
    'equilibrium example1 --format text --scenario optout:1':
        '4f168705cc7bc7d83bd72b98962239c00eebc4552a539f84733950cc51e63b89',
    'equilibrium example1 --format text --scenario optout:2':
        '1884f1c0a7ad4c14b900cb8fb15fba8bc3331c01eb52205aea70b916880e21fb',
    'equilibrium example2 --format structured --scenario baseline':
        '626b4f39d377e295883a112923a2f60491291f8843c0fe1d55ca1d103498c328',
    'equilibrium example2 --format structured --scenario incentive':
        '6d0f88df1c765d3eea227a5a52c32b49ac96625f17dc8d7fdffae293c2efd392',
    'equilibrium example2 --format structured --scenario optout:1':
        'bd91f5779fcd5422634b42b350d99f440d7a22999ace2faea8f3747e2b6d377a',
    'equilibrium example2 --format structured --scenario optout:2':
        '4aa284cfd3a16fd786b937ce69b37421a2a049bea00ce754b4d3f582aee6977e',
    'equilibrium example2 --format text --scenario baseline':
        'c7ea6cd3c139ea7897a5ab98e67f2ca0315cc1d12a467a12a9c7ce56f62c7e1b',
    'equilibrium example2 --format text --scenario incentive':
        '01841110813b21463919478d50cf7f5cdd950af050aa0be0338ccd6a281412fb',
    'equilibrium example2 --format text --scenario optout:1':
        'b52432c3e0919c58ca7e30fa8799039c7076222393a015331cb04d117d2f0b80',
    'equilibrium example2 --format text --scenario optout:2':
        'c9dd0956db896447c8097d45db3e9725713a0d6cebd8f5a91fa13dbbeaf1cad1',
    'equilibrium example3_case1 --format structured --scenario baseline':
        'cd813d3283c0028ce306242e859688a08272b341579f63ad6cbca7438031a256',
    'equilibrium example3_case1 --format structured --scenario incentive':
        '7270c502539608888c9b041e6b9b0fd4ad2630abd7a171eb9245a44688ff9088',
    'equilibrium example3_case1 --format structured --scenario optout:1':
        '90e6e6828349675d6fef93a1125fee4ce8c885ba481fcbf88dc0b6b1a1e60ad6',
    'equilibrium example3_case1 --format structured --scenario optout:2':
        '641710124bb3a89bd8102082247b19ac7a6622d81dc61266aff787b2bf3773e3',
    'equilibrium example3_case1 --format text --scenario baseline':
        '1b126de27d1fba87a5e0b11a621f8bac893e5816ba8b7241ae514ac7c5ba6f3c',
    'equilibrium example3_case1 --format text --scenario incentive':
        '0c0862dcc22ea017cc6334d1e517c3137df35b5097b7a3da31628152d7d52cf7',
    'equilibrium example3_case1 --format text --scenario optout:1':
        'c7b41008eaed6483e0aa3357bd03f2f6420db024e585d3c56174a39af59d6de2',
    'equilibrium example3_case1 --format text --scenario optout:2':
        '5e6fccaee4f0457fd2cc45a13ed1b1471fce067a362c8be6e960749b8ea4b0db',
    'equilibrium example3_case2 --format structured --scenario baseline':
        '05dc2e87ee65a0b90414258d2ab29efe06d243842d6a2f59a88d0d6f8309146d',
    'equilibrium example3_case2 --format structured --scenario incentive':
        'c1103cfe9e4e2bc3ec7c3dc43e036421ca4051515de6e72f2beb0f08a9cdc152',
    'equilibrium example3_case2 --format structured --scenario optout:1':
        '3abf4d1e69188f3920b78cd8ea1542a796b3190eeb89eb6347dd96df9a0f1fb2',
    'equilibrium example3_case2 --format structured --scenario optout:2':
        '19b4ddf76528b5d108a0c96e4732fae8ea7d5c060e9500ed65ee362c69786c72',
    'equilibrium example3_case2 --format text --scenario baseline':
        '0c6eb1c193dfba431ccfe7513259415457ebe646b0134e803ffbe6dfee80101f',
    'equilibrium example3_case2 --format text --scenario incentive':
        'f16693a45f0c5220d59602b8ce9a32d462ed357ef2c486ecdf5773aaf2aa5afa',
    'equilibrium example3_case2 --format text --scenario optout:1':
        '6693def312fe33af345a6722e2414431fac68d0569ab07ca15757ce9d5d0ff38',
    'equilibrium example3_case2 --format text --scenario optout:2':
        '47d3bf8ae675b9412bc32c5998daa646d1a848c2456288860f25d9197f8fd2fd',
    'equilibrium quartic --format structured --scenario baseline':
        '361bc32119930a77cfa686dbe8d2f3a080746b1e543426e8607ef79350ef7ec4',
    'equilibrium quartic --format structured --scenario incentive':
        '87315f9ee2843d44354e9756e646332fbeb178df60241012a2f8185487524757',
    'equilibrium quartic --format structured --scenario optout:1':
        '451cf4fdecef1508ba2a64e25e5cedb6f9f97668a8e0f116cb430822c074eb3b',
    'equilibrium quartic --format structured --scenario optout:2':
        '6a66863923e957537625cddcf6bd0a00c6c39cd99710f3b928c01c77d209528a',
    'equilibrium quartic --format text --scenario baseline':
        'f085a4da84bd2fb28e71ca9828285d7d2778bca2302202e78813cec8e5198533',
    'equilibrium quartic --format text --scenario incentive':
        '10a2669deebdf8a632c306ca0eab9cc4b0dae8374634ae3ae28c26fca2a53394',
    'equilibrium quartic --format text --scenario optout:1':
        'b3604745c1afff946729e33269a1db80109a85d6bf96c4e6bab82aa17cc15261',
    'equilibrium quartic --format text --scenario optout:2':
        '4c78adddebbb0df9fb7ed24d2c5a738c3629ccaafcd5f9793db5d97aa83cf962',
    'equilibrium three_equilibria_vcg --format structured --scenario baseline':
        '7593fc079d23b5896b26d14e1cc41bf316ec50140784b0dc8072e71ea614115f',
    'equilibrium three_equilibria_vcg --format structured --scenario incentive':
        '4ae207a023ba4021d3fa61d79c155c18759ee3c09405e2fbd61ce00787f8adf6',
    'equilibrium three_equilibria_vcg --format structured --scenario optout:1':
        '0a0b36867aaf503658be8cd0565f975b0d389b1e498ea2a018dcd32c5b6bfae1',
    'equilibrium three_equilibria_vcg --format structured --scenario optout:2':
        '792e2a9d7d3110b0b2134fd47ebcb99a12feaf04ba0df09b97c57b4bb06237e5',
    'equilibrium three_equilibria_vcg --format text --scenario baseline':
        '42995a71faaf6c221ee24e13c5c9dac7a488e354873ab24fdfc206fad78a90da',
    'equilibrium three_equilibria_vcg --format text --scenario incentive':
        'a9383ee309d224457b781c633b9ebbbdc453e13e6cc3c9861f99c3846566d4a1',
    'equilibrium three_equilibria_vcg --format text --scenario optout:1':
        '3e3d752c39cbc66e5072bd456045e9a35fe5e83306bc8de034491078292c4428',
    'equilibrium three_equilibria_vcg --format text --scenario optout:2':
        '1295611148e8407933b4e191a56cf9dc19bcb3eb16d92d9e575bf3743dda9df7',
    'oracle decoupled_demo --format structured --grid 41':
        '514bdafb663de598121e920ad4718ed3af46bd7f2097c64f91c2d749a9a92162',
    'oracle decoupled_demo --format text --grid 41':
        'b89fb46393bbe918ca86daba5d0fcbf2f1e3b80df8fd27204976b15e7a51eb67',
    'oracle example1 --format structured --grid 41':
        '9d79b8b00ad6585ab6d894eb9fc9b6b61f77f4287a3d8490fd8ef5cb761beecf',
    'oracle example1 --format text --grid 41':
        '3a4623733a19cfd905a3530f04acadbafbf6e0e61252463ea524bb8244ce31ea',
    'oracle example2 --format structured --grid 41':
        'beb814f980c05d6664fbac23f0c0964d0c702c4dac3ccfde62674e877d352c0e',
    'oracle example2 --format text --grid 41':
        '7820ab0a0eb5622386eae483e03392e79b2c13bfb1f0779713847284d6a3e7de',
    'oracle example3_case1 --format structured --grid 41':
        '5e6e691b20351c9770c0c216fdff9c43f38cef2623de8994d2d6728a3cbcf9d6',
    'oracle example3_case1 --format text --grid 41':
        'd8cde9bf50358ac108e67e651c6f8093ce048e0ccfef4cf0699306f9a3de285d',
    'oracle example3_case2 --format structured --grid 41':
        '5e6e691b20351c9770c0c216fdff9c43f38cef2623de8994d2d6728a3cbcf9d6',
    'oracle example3_case2 --format text --grid 41':
        'd8cde9bf50358ac108e67e651c6f8093ce048e0ccfef4cf0699306f9a3de285d',
    'oracle quartic --format structured --grid 41':
        'f18aa68087a22e6323d5ea3bc1ee43e8d8fb52fec13adbc134a593f89e067f74',
    'oracle quartic --format text --grid 41':
        '5066a0cb66abd24e2e71295101d96eaa2168fb3d554722fd2e9031d9030fb411',
    'oracle three_equilibria_vcg --format structured --grid 41':
        'b6c5f7f0f810f7690f210a87d41e822f1c6f104f8322107ff0ac421571ed36eb',
    'oracle three_equilibria_vcg --format text --grid 41':
        '3d54a8fed8467a0fd53d3a270408fe48e65e40609ff8e6a55454ea1218247984',
}


@pytest.fixture(scope="module")
def inline_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("games")
    write_inline(directory)
    return directory


def all_games() -> list[str]:
    return sorted(p.stem for p in GAMES_DIR.glob("*.game")) + sorted(INLINE)


def test_corpus_covers_every_game():
    assert sorted(DIGESTS) == sorted(corpus(all_games()))


@pytest.mark.parametrize("request_line", sorted(DIGESTS))
def test_report_bytes_are_unchanged(request_line, inline_dir):
    assert digest(request_line, inline_dir) == DIGESTS[request_line]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_inline(Path(tmp))
        lines = [f"    {r!r}:\n        {digest(r, Path(tmp))!r},"
                 for r in sorted(corpus(all_games()))]
    sys.stdout.write("DIGESTS = {\n" + "\n".join(lines) + "\n}\n")
