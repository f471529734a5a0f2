"""Byte-identity guard for every CLI document.

Each command runs on every applicable preset at a reduced size, in CSV and
JSON, and the SHA-256 of the written document must equal the digest recorded
here.  The digests were taken from the per-value renderer before CSV rendering
and parsing moved to whole-row formats; any change to a document, down to one
digit or one byte of whitespace, fails this test.  Regenerate them only for a
deliberate change of output.
"""

import hashlib

import pytest

from duffinglab.cli import main

# argv -> (exit status, sha256 of the document written to --out)
DIGESTS = {
    "simulate --preset ECO_DYN_1 --t-max 1 --format csv":
        (0, "63a2630a5c7ea243dbd180bc037ae852de140b69e027e0e280084a17f3d7a53a"),
    "simulate --preset ECO_DYN_1 --t-max 1 --format json":
        (0, "ea2239f7fa88217573197be8912198d039f32cfac53fbee0adf9a8381ee4eb1d"),
    "picard --preset ECO_DYN_1 --t-max 1 --format csv":
        (0, "5a70fffab0420d0fd7080f5e2b6dddaec491bfb4824f4bceb3bc79e142f082b7"),
    "picard --preset ECO_DYN_1 --t-max 1 --format json":
        (0, "bf27356efa50d3e4ebf539a51b2f558598658e4ce10df90f7d7bed057be9e3c2"),
    "compare --preset ECO_DYN_1 --t-max 1 --format csv":
        (0, "d639d107a8521e18cb842dac5ed0bbeb052e458b6628d42dd25f60e95e3bdf08"),
    "compare --preset ECO_DYN_1 --t-max 1 --format json":
        (0, "c1e5a3fad64f857f5ce521d88f7e9fa551846daf7722210026c83b32ecad566a"),
    "compare --preset ECO_DYN_1 --t-max 1 --with homotopy --format csv":
        (0, "7631ca7c93436d8f224de05e297cdeb6c7b8200e0ee63e28b4907f3363bc1e2f"),
    "compare --preset ECO_DYN_1 --t-max 1 --with homotopy --format json":
        (0, "8ac0cb7eb00215f464fd8e3f221f917c671095048ec2ac7e0a892cc7931d217f"),
    "lyapunov --preset ECO_DYN_1 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "655491b77c77458e88a0e8dc4b4d71733a0798c3b15f1daf177ed7b8b7c830a1"),
    "lyapunov --preset ECO_DYN_1 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "2806c05a4200b2a620a015a9da4ab9c489c6da7f9a032a1646a6c22b5e449dd7"),
    "simulate --preset ECO_DYN_2 --t-max 1 --format csv":
        (0, "95a167cd9d120682ea2b27b19682a3f0fa65a1d79f53f328a2d80a6abc0dbf93"),
    "simulate --preset ECO_DYN_2 --t-max 1 --format json":
        (0, "34c0d8ffef92369e03727d75c83bb2646ff68998c3b7690976262bce93c13e4a"),
    "picard --preset ECO_DYN_2 --t-max 1 --format csv":
        (0, "5fb22450eb8187c3d02b61abd3766aa9941ace7667d26af6bf7b6cd5301a259e"),
    "picard --preset ECO_DYN_2 --t-max 1 --format json":
        (0, "d6712c063c5330dbb7c4ff03b0bf50eac72a822bd07ad0256e493e7fcdf1dda1"),
    "compare --preset ECO_DYN_2 --t-max 1 --format csv":
        (0, "fb9c9d1a2b7d1a63efa5d6bcf02fd2bf5c0d068d487888df476cbb290306ff56"),
    "compare --preset ECO_DYN_2 --t-max 1 --format json":
        (0, "4f350bdec1278709d36c86c65d38904cacea7d9c2525ce5aca6ed413b455a7ee"),
    "compare --preset ECO_DYN_2 --t-max 1 --with homotopy --format csv":
        (0, "4b1c631caadef00510460a3cc541c055c3210c5fbe9e7a711d84ddbd7d1e5136"),
    "compare --preset ECO_DYN_2 --t-max 1 --with homotopy --format json":
        (0, "298ce35d8f9fd1f427bb38d3ac5191f64c1b19d5228c0e0d6d27a87388955891"),
    "lyapunov --preset ECO_DYN_2 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "9d1644dab9437484995768dfbec3e9abe01befe3e95c6b45b52e8ac513485fab"),
    "lyapunov --preset ECO_DYN_2 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "88c8edd8772b1ab60da1110d32d6083ac553f060819ef987baa21581ecd8e45f"),
    "simulate --preset CHAOS_A02 --t-max 1 --format csv":
        (0, "e242f09750d8da9c8f47f24058d7521b64a453b82e47c5d9c980e151f0d9ee2e"),
    "simulate --preset CHAOS_A02 --t-max 1 --format json":
        (0, "ce5aa1dcec629a7426cea3e45d4d7fbe279f9428301996e157cf74c282a2ac3f"),
    "picard --preset CHAOS_A02 --t-max 1 --format csv":
        (0, "9aad7b4d5907fb6dc37feb9d1a181853379eaa6636375eef47a4e1940862689f"),
    "picard --preset CHAOS_A02 --t-max 1 --format json":
        (0, "6eb14b690ecfc4b8c4e430007fab13c42ed91461222e9c5d703ea07ee7921169"),
    "compare --preset CHAOS_A02 --t-max 1 --format csv":
        (0, "f42ca799fcfef3a04a176b33e4ec31a3af9d59706ed6c36bf2e1646f4274b104"),
    "compare --preset CHAOS_A02 --t-max 1 --format json":
        (0, "c37e2b3a513df7bb685bd80badf2c509767331e3148bfb4a58c3f80c8e75bd54"),
    "compare --preset CHAOS_A02 --t-max 1 --with homotopy --format csv":
        (0, "55b55405f9d74d2d65804c87574e010021c4119399c45066e904d0dd453093da"),
    "compare --preset CHAOS_A02 --t-max 1 --with homotopy --format json":
        (0, "219312602c8d27b91102521ce9df87d8ee717350766cfb9737b281961dc660e9"),
    "lyapunov --preset CHAOS_A02 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "503f16b4b44be45bbdda2c2f041965dc3315045bb9edee01af7ae7432e35366c"),
    "lyapunov --preset CHAOS_A02 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "d57ea5f1983ee8bf842093cb064372134698af7ffcde94d26bffdbd2503169e0"),
    "simulate --preset QUINTIC_A00025 --t-max 1 --format csv":
        (0, "96806874f600db0745b733029e5401269f2d71ebe64e1e7effa017ce7e4030e0"),
    "simulate --preset QUINTIC_A00025 --t-max 1 --format json":
        (0, "ef739cdc1d022e60ae5d90630440cab93e4fda60e90c1b839bce55afae14c965"),
    "picard --preset QUINTIC_A00025 --t-max 1 --format csv":
        (0, "beba498f89e9378be8588672ea6ab5735f8c5c3346ac063e4d7274c073764653"),
    "picard --preset QUINTIC_A00025 --t-max 1 --format json":
        (0, "a6a3f1ad1da9b2641fd7a7bd8e8f3f092dce77c25c7dd3c7ea0e70d740dea522"),
    "compare --preset QUINTIC_A00025 --t-max 1 --format csv":
        (0, "f9273a3d57999579c206fbe981ddcc08c44d6ce7d85d46bfa0c44d0959aff531"),
    "compare --preset QUINTIC_A00025 --t-max 1 --format json":
        (0, "5ba06c2913af93c4e6dc9b729edc3dbd876c895c8b5338396cf606a7c93b8d1b"),
    "compare --preset QUINTIC_A00025 --t-max 1 --with homotopy --format csv":
        (0, "e13d269fb5ebc704f4e9aaea8dea1779222ef9dced510e625a8022562493091b"),
    "compare --preset QUINTIC_A00025 --t-max 1 --with homotopy --format json":
        (0, "fc585acea7b22ad8e08f1390291359972e2333f1f8be296ccace33b27f4504cc"),
    "lyapunov --preset QUINTIC_A00025 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "77c0e57a809cd5e0c0481f1c7537d2800be977a6500ad27469ed8b69cdcbd487"),
    "lyapunov --preset QUINTIC_A00025 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "e40a9b33b649d45039dae9c912991ff4a996f9877045f377a409924734e1261e"),
    "simulate --preset QUINTIC_A0002 --t-max 1 --format csv":
        (0, "41581d23ac482eacc933befbb1aa39f7cec20d6d2c010afff837399659b3e7ad"),
    "simulate --preset QUINTIC_A0002 --t-max 1 --format json":
        (0, "e6b454c796f6e381ffc36c5138d642b7b7fc2e426086497179a6b728d31531e2"),
    "picard --preset QUINTIC_A0002 --t-max 1 --format csv":
        (0, "a7007a04f938da2c3c176884f6d7d164d68a1509ef202065d3580269b9d42e52"),
    "picard --preset QUINTIC_A0002 --t-max 1 --format json":
        (0, "f95cf847b98bf8d25167eddb8fda099814da51b9a91ee2acd03c2c19cb9804a0"),
    "compare --preset QUINTIC_A0002 --t-max 1 --format csv":
        (0, "aacbbe835dfe45c0ed5e0496f6d7bcf0fd061e928ff8726ccc8b9025016fe29a"),
    "compare --preset QUINTIC_A0002 --t-max 1 --format json":
        (0, "a47bdd786039aae321e17ebde0112e971422ae35f883432c14b78954f39a3d97"),
    "compare --preset QUINTIC_A0002 --t-max 1 --with homotopy --format csv":
        (0, "a7d069bd8d003d692bb27e35574d34f2a40f56654fa4aa81fc8ceab0514af284"),
    "compare --preset QUINTIC_A0002 --t-max 1 --with homotopy --format json":
        (0, "4eead90542511b56187b4609b35343784fef62539fa1a1d5153088755ab1903f"),
    "lyapunov --preset QUINTIC_A0002 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "0809a38becb8f79c1a3e92a666a6c1618d0f21c616149f9afd4f40bc863aae36"),
    "lyapunov --preset QUINTIC_A0002 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "cee57e481b0256b9c90e7f87796fa7d5e05c1d64bb4d4b6842b82302d4c02cad"),
    "simulate --preset QUINTIC_A000025 --t-max 1 --format csv":
        (0, "47b7db92e92375ce2012215b6623d9ff278cb8ea0deb3dbaa602ca866162d7d1"),
    "simulate --preset QUINTIC_A000025 --t-max 1 --format json":
        (0, "663bf349ac808a742dec9964225a84a5e32c3a2ee66d7e2151319bc763e16a2a"),
    "picard --preset QUINTIC_A000025 --t-max 1 --format csv":
        (0, "d48ccc77d5a6fdb523bce010f527e8615ca0e0bd4410b3859c8abfbe1520e120"),
    "picard --preset QUINTIC_A000025 --t-max 1 --format json":
        (0, "57c4dd6ec89ee8ddcc6e8135807ec822b8b4ae8aa6e71246854862c025304402"),
    "compare --preset QUINTIC_A000025 --t-max 1 --format csv":
        (0, "4f47263d0860986f6704d2dc75333e05bd53139c6585cb0d5a3ca6afd22ccbee"),
    "compare --preset QUINTIC_A000025 --t-max 1 --format json":
        (0, "4ca1f012a51fa9616a16351df20194198b07c0e5410398b9cf2a91d1a079f18e"),
    "compare --preset QUINTIC_A000025 --t-max 1 --with homotopy --format csv":
        (0, "d09c8b11a3f5a23070e5e00217af82303cd4998def82fe03097387933388f63d"),
    "compare --preset QUINTIC_A000025 --t-max 1 --with homotopy --format json":
        (0, "1617534c0d9c00832626243b36dc88ee1c3fe0cf7a302e36c96f79a458bce441"),
    "lyapunov --preset QUINTIC_A000025 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "edf0995844b74a57996dd3c2b3f0546465e674dd3ff44be01e2325b0e7855a6a"),
    "lyapunov --preset QUINTIC_A000025 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "95ebad3175422f2d62cb9c7d629039d0e1a00b7b48137e358ee18cf5cccb82ef"),
    "simulate --preset ECO_DYN_1 --t-max 1 --set run.record_stride=7 --format csv":
        (0, "92dd4fb6de759c99b01e2581b089d63d7f2c31fd5f0b3c7e621bf5c73b87c5a3"),
    "simulate --preset ECO_DYN_1 --t-max 1 --set run.record_stride=7 --format json":
        (0, "aff34c8cb49fd284bf384ed370eb35b5c906eea35e1dd77bca8bd4e16b4b2769"),
    "simulate --preset CHAOS_A02 --t-max 1 --method euler --format csv":
        (0, "03660e3415c3af33ba90a029b7e347d681187e763f75db71890a3565d5f4cdcb"),
    "simulate --preset CHAOS_A02 --t-max 1 --method euler --format json":
        (0, "f1106232135b84ec8430225c1a5d636cf387d645a3603e71be899a14a33fc451"),
    "simulate --preset CHAOS_A02 --t-max 1 --set model.gamma=1e200 --format csv":
        (2, "f976609fd68be23c6c135466a897fca4f6591271f5e4f91f04058535f39cfff3"),
    "simulate --preset CHAOS_A02 --t-max 1 --set model.gamma=1e200 --format json":
        (2, "e9a868f5851fe6cab1712aef68c9f4cf8ea81988fa284e6269f69944a3fd6344"),
    "fd --preset FD_PAPER --set fd.n=50 --format csv":
        (0, "67ba97373131f15a75511e058f7084ed43d75278d31eac36179313cc9db650a4"),
    "fd --preset FD_PAPER --set fd.n=50 --format json":
        (0, "db0c46b6b50e713c72a93ac75fce1b247d12ff86d15f352137f3797f93c20fda"),
    "bifurcate --preset BIF_CASE_1 --t-max 1 --samples 6 --format csv":
        (0, "bb922acdc20425291b9e97d73c22efbc31737283aa599c8f8eaa2e40e9f213cd"),
    "bifurcate --preset BIF_CASE_1 --t-max 1 --samples 6 --format json":
        (0, "6be27fdd7e2e336732bf6097d3b6c4693dd9f9056b1e247a4735932a51941fc4"),
    "bifurcate --preset BIF_CASE_2 --t-max 1 --samples 6 --format csv":
        (0, "50797a793f44b24886eaa7fc754820a4f43564a3439aeeeeff6b0da28b753ede"),
    "bifurcate --preset BIF_CASE_2 --t-max 1 --samples 6 --format json":
        (0, "1ccb6e9288dfb6c7081f50fc642cc9a35fc151258cb46538344ef2dcac34b4e2"),
    "bifurcate --preset BIF_CASE_3 --t-max 1 --samples 6 --format csv":
        (0, "addbe08e7a6f51753ffd12773a5bb0b6a2d65fc57871476e291803bfb1767f88"),
    "bifurcate --preset BIF_CASE_3 --t-max 1 --samples 6 --format json":
        (0, "9e424fe1e9fb4a2d67a1f8d94f85d6278c2de626d2b7c4894f1515e1f1803841"),
    "homotopy --t-max 1 --format csv":
        (0, "16285532b39d9d5b284db5062c264728583856673523f4a5c1d0863e4851643a"),
    "homotopy --t-max 1 --format json":
        (0, "d92f51ecc030bf727e749b7ec1595db86dc8664e7a828bf8bfe687e85f8d32fb"),
    "rates --format csv":
        (0, "79b3a69adfc1df499310939f3e49e7ecac93fd55871cc68fd9af11412924fbe0"),
    "rates --format json":
        (0, "9a41f26bc7719cc284def1e134135f5dda2f6c2bca2d07270d153dbeb127bf39"),
    "presets --format csv":
        (0, "0ba4fecc893a34467920d2527036780da123f1ca2d8f70746cadd0f450421ba5"),
    "presets --format json":
        (0, "b6ee7266d08f256aa695dee46be0bff00d907d841e9deb192c64d194652665ae"),
}


@pytest.mark.parametrize("argv", list(DIGESTS))
def test_document_bytes_match_recorded_digest(argv, tmp_path, capsys):
    code, digest = DIGESTS[argv]
    path = tmp_path / "doc"
    assert main(argv.split() + ["--out", str(path)]) == code
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
