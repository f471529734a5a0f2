"""Byte-identity guard for every CLI document.

Each command runs on every applicable preset at a reduced size, in CSV and
JSON, and the SHA-256 of the written document must equal the digest recorded
here.  The digests were taken from the per-value renderer before CSV rendering
and parsing moved to whole-row formats; any change to a document, down to one
digit or one byte of whitespace, fails this test.  Regenerate them only for a
deliberate change of output.  The JSON documents of simulate, picard, compare
and bifurcate and both presets documents were regenerated when the config
paths those commands never read were dropped (s0.t, picard.k under --with
homotopy, a sweep's model.omega); no row of any document changed.
"""

import hashlib

import pytest

from duffinglab.cli import main

# argv -> (exit status, sha256 of the document written to --out)
DIGESTS = {
    "simulate --preset ECO_DYN_1 --t-max 1 --format csv":
        (0, "63a2630a5c7ea243dbd180bc037ae852de140b69e027e0e280084a17f3d7a53a"),
    "simulate --preset ECO_DYN_1 --t-max 1 --format json":
        (0, "d54c02e564a5130df0dad407a14ece739d805814a5421cc945ff8741726237c4"),
    "picard --preset ECO_DYN_1 --t-max 1 --format csv":
        (0, "5a70fffab0420d0fd7080f5e2b6dddaec491bfb4824f4bceb3bc79e142f082b7"),
    "picard --preset ECO_DYN_1 --t-max 1 --format json":
        (0, "09ca6fe8c7c0011f867d5e218d4587040b16dc69ec26b08980b56a91463538d0"),
    "compare --preset ECO_DYN_1 --t-max 1 --format csv":
        (0, "d639d107a8521e18cb842dac5ed0bbeb052e458b6628d42dd25f60e95e3bdf08"),
    "compare --preset ECO_DYN_1 --t-max 1 --format json":
        (0, "069eb88df41ca745dff11f8d32bf99c8a2772dbab9f3c2bf810ec3423cf1b370"),
    "compare --preset ECO_DYN_1 --t-max 1 --with homotopy --format csv":
        (0, "7631ca7c93436d8f224de05e297cdeb6c7b8200e0ee63e28b4907f3363bc1e2f"),
    "compare --preset ECO_DYN_1 --t-max 1 --with homotopy --format json":
        (0, "b710666fcb03bd799426930a3b4e536a718ec96da88eb7542810e9e8a8b24eb6"),
    "lyapunov --preset ECO_DYN_1 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "655491b77c77458e88a0e8dc4b4d71733a0798c3b15f1daf177ed7b8b7c830a1"),
    "lyapunov --preset ECO_DYN_1 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "2806c05a4200b2a620a015a9da4ab9c489c6da7f9a032a1646a6c22b5e449dd7"),
    "simulate --preset ECO_DYN_2 --t-max 1 --format csv":
        (0, "95a167cd9d120682ea2b27b19682a3f0fa65a1d79f53f328a2d80a6abc0dbf93"),
    "simulate --preset ECO_DYN_2 --t-max 1 --format json":
        (0, "48358775510d13d44858d8ef1c569346222c73343fa05edd27e6659220d1aff9"),
    "picard --preset ECO_DYN_2 --t-max 1 --format csv":
        (0, "5fb22450eb8187c3d02b61abd3766aa9941ace7667d26af6bf7b6cd5301a259e"),
    "picard --preset ECO_DYN_2 --t-max 1 --format json":
        (0, "dc236f5f71a57867e85ababe1672065126a54ebb89c90c2b4289be070c3e6361"),
    "compare --preset ECO_DYN_2 --t-max 1 --format csv":
        (0, "fb9c9d1a2b7d1a63efa5d6bcf02fd2bf5c0d068d487888df476cbb290306ff56"),
    "compare --preset ECO_DYN_2 --t-max 1 --format json":
        (0, "682c992a1b206a6abddf3960a53805c9ed89bac359e91f8589edb1d844c6fc3d"),
    "compare --preset ECO_DYN_2 --t-max 1 --with homotopy --format csv":
        (0, "4b1c631caadef00510460a3cc541c055c3210c5fbe9e7a711d84ddbd7d1e5136"),
    "compare --preset ECO_DYN_2 --t-max 1 --with homotopy --format json":
        (0, "99579fc9e3d84cfa4b2817543b66bc877d7866e2b3ec729eb0ef43f9e8bca86a"),
    "lyapunov --preset ECO_DYN_2 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "9d1644dab9437484995768dfbec3e9abe01befe3e95c6b45b52e8ac513485fab"),
    "lyapunov --preset ECO_DYN_2 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "88c8edd8772b1ab60da1110d32d6083ac553f060819ef987baa21581ecd8e45f"),
    "simulate --preset CHAOS_A02 --t-max 1 --format csv":
        (0, "e242f09750d8da9c8f47f24058d7521b64a453b82e47c5d9c980e151f0d9ee2e"),
    "simulate --preset CHAOS_A02 --t-max 1 --format json":
        (0, "ce233c01725390b322b0c96512f7c43f0095fb667657e7851d053e5eb810c88b"),
    "picard --preset CHAOS_A02 --t-max 1 --format csv":
        (0, "9aad7b4d5907fb6dc37feb9d1a181853379eaa6636375eef47a4e1940862689f"),
    "picard --preset CHAOS_A02 --t-max 1 --format json":
        (0, "96c9356351c4cc7e1a4e3e1b19208e04507984d728ec8c94420376e7e388a978"),
    "compare --preset CHAOS_A02 --t-max 1 --format csv":
        (0, "f42ca799fcfef3a04a176b33e4ec31a3af9d59706ed6c36bf2e1646f4274b104"),
    "compare --preset CHAOS_A02 --t-max 1 --format json":
        (0, "f63468d3dd1afb823995349524ef2303c25c1403b42077f6774447f29ac35309"),
    "compare --preset CHAOS_A02 --t-max 1 --with homotopy --format csv":
        (0, "55b55405f9d74d2d65804c87574e010021c4119399c45066e904d0dd453093da"),
    "compare --preset CHAOS_A02 --t-max 1 --with homotopy --format json":
        (0, "d98835d8291a0d8e9df9b62a5ae9393731a5f2d60d6de595ad7cad60ad8aaa52"),
    "lyapunov --preset CHAOS_A02 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "503f16b4b44be45bbdda2c2f041965dc3315045bb9edee01af7ae7432e35366c"),
    "lyapunov --preset CHAOS_A02 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "d57ea5f1983ee8bf842093cb064372134698af7ffcde94d26bffdbd2503169e0"),
    "simulate --preset QUINTIC_A00025 --t-max 1 --format csv":
        (0, "96806874f600db0745b733029e5401269f2d71ebe64e1e7effa017ce7e4030e0"),
    "simulate --preset QUINTIC_A00025 --t-max 1 --format json":
        (0, "1312e05f6866f3df653cce5c010de96feaf09eb9258bc1364fc5b38c84f71558"),
    "picard --preset QUINTIC_A00025 --t-max 1 --format csv":
        (0, "beba498f89e9378be8588672ea6ab5735f8c5c3346ac063e4d7274c073764653"),
    "picard --preset QUINTIC_A00025 --t-max 1 --format json":
        (0, "8fa49d5dde55fb62f7760270274f5087ff3ba0f493aa0bd698327b1f1551165e"),
    "compare --preset QUINTIC_A00025 --t-max 1 --format csv":
        (0, "f9273a3d57999579c206fbe981ddcc08c44d6ce7d85d46bfa0c44d0959aff531"),
    "compare --preset QUINTIC_A00025 --t-max 1 --format json":
        (0, "c8c7580e125a19cfca3dace864701c5288a8f7ea848c84974f7afc81ca321199"),
    "compare --preset QUINTIC_A00025 --t-max 1 --with homotopy --format csv":
        (0, "e13d269fb5ebc704f4e9aaea8dea1779222ef9dced510e625a8022562493091b"),
    "compare --preset QUINTIC_A00025 --t-max 1 --with homotopy --format json":
        (0, "fa0a8801bda819026c9ecd299eaf34640f0b270022fb2ea3f7509c052e5ea116"),
    "lyapunov --preset QUINTIC_A00025 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "77c0e57a809cd5e0c0481f1c7537d2800be977a6500ad27469ed8b69cdcbd487"),
    "lyapunov --preset QUINTIC_A00025 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "e40a9b33b649d45039dae9c912991ff4a996f9877045f377a409924734e1261e"),
    "simulate --preset QUINTIC_A0002 --t-max 1 --format csv":
        (0, "41581d23ac482eacc933befbb1aa39f7cec20d6d2c010afff837399659b3e7ad"),
    "simulate --preset QUINTIC_A0002 --t-max 1 --format json":
        (0, "dc75cb0c1465f4d7271015c2380f2b75f342271873921fd22dbd0d1b2d2d5c40"),
    "picard --preset QUINTIC_A0002 --t-max 1 --format csv":
        (0, "a7007a04f938da2c3c176884f6d7d164d68a1509ef202065d3580269b9d42e52"),
    "picard --preset QUINTIC_A0002 --t-max 1 --format json":
        (0, "e7d88c304d59b27a2b4b0d279cef648391dc3ea8b60d5b4119c764011c640209"),
    "compare --preset QUINTIC_A0002 --t-max 1 --format csv":
        (0, "aacbbe835dfe45c0ed5e0496f6d7bcf0fd061e928ff8726ccc8b9025016fe29a"),
    "compare --preset QUINTIC_A0002 --t-max 1 --format json":
        (0, "b839e8248b1348f908d2924d909970f7bbf6f64ac721d9ec611e8cbe55115595"),
    "compare --preset QUINTIC_A0002 --t-max 1 --with homotopy --format csv":
        (0, "a7d069bd8d003d692bb27e35574d34f2a40f56654fa4aa81fc8ceab0514af284"),
    "compare --preset QUINTIC_A0002 --t-max 1 --with homotopy --format json":
        (0, "db88dde7d031e24ca3a12d19c45eb403558a513e91e61273d004271b241bdfe2"),
    "lyapunov --preset QUINTIC_A0002 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "0809a38becb8f79c1a3e92a666a6c1618d0f21c616149f9afd4f40bc863aae36"),
    "lyapunov --preset QUINTIC_A0002 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "cee57e481b0256b9c90e7f87796fa7d5e05c1d64bb4d4b6842b82302d4c02cad"),
    "simulate --preset QUINTIC_A000025 --t-max 1 --format csv":
        (0, "47b7db92e92375ce2012215b6623d9ff278cb8ea0deb3dbaa602ca866162d7d1"),
    "simulate --preset QUINTIC_A000025 --t-max 1 --format json":
        (0, "e00a07245bbe22d541e906818ae7c78615eea55b97cdd969daa7e2aae0b23207"),
    "picard --preset QUINTIC_A000025 --t-max 1 --format csv":
        (0, "d48ccc77d5a6fdb523bce010f527e8615ca0e0bd4410b3859c8abfbe1520e120"),
    "picard --preset QUINTIC_A000025 --t-max 1 --format json":
        (0, "ca69bde667e2ffb349b96daf26469577c9a38f44903ed898930d13220e06e708"),
    "compare --preset QUINTIC_A000025 --t-max 1 --format csv":
        (0, "4f47263d0860986f6704d2dc75333e05bd53139c6585cb0d5a3ca6afd22ccbee"),
    "compare --preset QUINTIC_A000025 --t-max 1 --format json":
        (0, "52d31ea6b0aea6ccd6cdc45374e35f8f220d5ef7701965afeef4a0baa40e295f"),
    "compare --preset QUINTIC_A000025 --t-max 1 --with homotopy --format csv":
        (0, "d09c8b11a3f5a23070e5e00217af82303cd4998def82fe03097387933388f63d"),
    "compare --preset QUINTIC_A000025 --t-max 1 --with homotopy --format json":
        (0, "eb93d1a7ab6dc6c8ee89fc465b2ae2c75a104c0daac877b71a97cb342923631d"),
    "lyapunov --preset QUINTIC_A000025 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "edf0995844b74a57996dd3c2b3f0546465e674dd3ff44be01e2325b0e7855a6a"),
    "lyapunov --preset QUINTIC_A000025 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "95ebad3175422f2d62cb9c7d629039d0e1a00b7b48137e358ee18cf5cccb82ef"),
    "simulate --preset ECO_DYN_1 --t-max 1 --set run.record_stride=7 --format csv":
        (0, "92dd4fb6de759c99b01e2581b089d63d7f2c31fd5f0b3c7e621bf5c73b87c5a3"),
    "simulate --preset ECO_DYN_1 --t-max 1 --set run.record_stride=7 --format json":
        (0, "608501538a0761ea13038c0ab7f96bb7dd7bd27a258202f442021a662ad2f8e7"),
    "simulate --preset CHAOS_A02 --t-max 1 --method euler --format csv":
        (0, "03660e3415c3af33ba90a029b7e347d681187e763f75db71890a3565d5f4cdcb"),
    "simulate --preset CHAOS_A02 --t-max 1 --method euler --format json":
        (0, "86433e8e5e381beb20cb76b0b8c40853891d9e767a4d888bc1714fe0dccd456a"),
    "simulate --preset CHAOS_A02 --t-max 1 --set model.gamma=1e200 --format csv":
        (2, "f976609fd68be23c6c135466a897fca4f6591271f5e4f91f04058535f39cfff3"),
    "simulate --preset CHAOS_A02 --t-max 1 --set model.gamma=1e200 --format json":
        (2, "4b2715c867ce35ddf986d499cd6460d3ac22f14fe732ae0213a01416ee0089d1"),
    "fd --preset FD_PAPER --set fd.n=50 --format csv":
        (0, "67ba97373131f15a75511e058f7084ed43d75278d31eac36179313cc9db650a4"),
    "fd --preset FD_PAPER --set fd.n=50 --format json":
        (0, "db0c46b6b50e713c72a93ac75fce1b247d12ff86d15f352137f3797f93c20fda"),
    "bifurcate --preset BIF_CASE_1 --t-max 1 --samples 6 --format csv":
        (0, "bb922acdc20425291b9e97d73c22efbc31737283aa599c8f8eaa2e40e9f213cd"),
    "bifurcate --preset BIF_CASE_1 --t-max 1 --samples 6 --format json":
        (0, "6753257aa5ea0b62ca61e9adec7a90845309caee0ad55e56b884477a65b5c610"),
    "bifurcate --preset BIF_CASE_2 --t-max 1 --samples 6 --format csv":
        (0, "50797a793f44b24886eaa7fc754820a4f43564a3439aeeeeff6b0da28b753ede"),
    "bifurcate --preset BIF_CASE_2 --t-max 1 --samples 6 --format json":
        (0, "2f121be38243d17706cb9e6e98099b226095e9199ad3c99d3d58c0519b707a7c"),
    "bifurcate --preset BIF_CASE_3 --t-max 1 --samples 6 --format csv":
        (0, "addbe08e7a6f51753ffd12773a5bb0b6a2d65fc57871476e291803bfb1767f88"),
    "bifurcate --preset BIF_CASE_3 --t-max 1 --samples 6 --format json":
        (0, "f952996696f6034bf2369dc726b6424ac5b30873a4c6e71dfcdd98ffaee24eab"),
    "homotopy --t-max 1 --format csv":
        (0, "16285532b39d9d5b284db5062c264728583856673523f4a5c1d0863e4851643a"),
    "homotopy --t-max 1 --format json":
        (0, "d92f51ecc030bf727e749b7ec1595db86dc8664e7a828bf8bfe687e85f8d32fb"),
    "rates --format csv":
        (0, "79b3a69adfc1df499310939f3e49e7ecac93fd55871cc68fd9af11412924fbe0"),
    "rates --format json":
        (0, "9a41f26bc7719cc284def1e134135f5dda2f6c2bca2d07270d153dbeb127bf39"),
    "presets --format csv":
        (0, "c02c080d17b0ab3b8b861367544e5180847f968e7f27b083b2c5e5e5d29024f6"),
    "presets --format json":
        (0, "5791fa0cb600a8f92560bee291b6c307a08f65ca30d6ec044bb01210fd80bd98"),
}


@pytest.mark.parametrize("argv", list(DIGESTS))
def test_document_bytes_match_recorded_digest(argv, tmp_path, capsys):
    code, digest = DIGESTS[argv]
    path = tmp_path / "doc"
    assert main(argv.split() + ["--out", str(path)]) == code
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
