"""Byte-identity guard for every CLI document.

Each command runs on every applicable preset at a reduced size, in CSV and
JSON, and the SHA-256 of the written document must equal the digest recorded
here.  The digests were taken from the per-value renderer before CSV rendering
and parsing moved to whole-row formats; any change to a document, down to one
digit or one byte of whitespace, fails this test.  Regenerate them only for a
deliberate change of output.  The JSON documents of simulate, picard, compare
and bifurcate and both presets documents were regenerated when the config
paths those commands never read were dropped (s0.t, picard.k under --with
homotopy, a sweep's model.omega); no row of any document changed.  The JSON
documents of simulate, picard, compare, lyapunov, bifurcate and fd and both
presets documents were regenerated again when each preset's model.* paths
became the coefficients its model kind reads (dynamics.MODEL_FIELDS, and
integrators.FD_FIELDS for fd): only model.* config keys and presets rows were
deleted, and every other byte stayed the same.
"""

import hashlib

import pytest

from duffinglab.cli import main

# argv -> (exit status, sha256 of the document written to --out)
DIGESTS = {
    "simulate --preset ECO_DYN_1 --t-max 1 --format csv":
        (0, "63a2630a5c7ea243dbd180bc037ae852de140b69e027e0e280084a17f3d7a53a"),
    "simulate --preset ECO_DYN_1 --t-max 1 --format json":
        (0, "8f09947972b1c4171b49bc57a8da864605ce8fa0b4c2cb49bbdc23789fe0ba9f"),
    "picard --preset ECO_DYN_1 --t-max 1 --format csv":
        (0, "5a70fffab0420d0fd7080f5e2b6dddaec491bfb4824f4bceb3bc79e142f082b7"),
    "picard --preset ECO_DYN_1 --t-max 1 --format json":
        (0, "58d799a492bdf56795acbf68ef5219ef7041184eb0b303be532528c94a26a910"),
    "compare --preset ECO_DYN_1 --t-max 1 --format csv":
        (0, "d639d107a8521e18cb842dac5ed0bbeb052e458b6628d42dd25f60e95e3bdf08"),
    "compare --preset ECO_DYN_1 --t-max 1 --format json":
        (0, "ce9c312b2f7568c66be83d8a38cbe0f38f712c7c2516ccc949c663196ea99438"),
    "compare --preset ECO_DYN_1 --t-max 1 --with homotopy --format csv":
        (0, "7631ca7c93436d8f224de05e297cdeb6c7b8200e0ee63e28b4907f3363bc1e2f"),
    "compare --preset ECO_DYN_1 --t-max 1 --with homotopy --format json":
        (0, "580a60e9ac3c99d0718e5258be72a04982e7b45a744b77de2099aecb4975704b"),
    "lyapunov --preset ECO_DYN_1 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "655491b77c77458e88a0e8dc4b4d71733a0798c3b15f1daf177ed7b8b7c830a1"),
    "lyapunov --preset ECO_DYN_1 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "5691decbc471cb50a55b7ecc09df52d809cb2a713f9b3da0f6b1b9fe68057c54"),
    "simulate --preset ECO_DYN_2 --t-max 1 --format csv":
        (0, "95a167cd9d120682ea2b27b19682a3f0fa65a1d79f53f328a2d80a6abc0dbf93"),
    "simulate --preset ECO_DYN_2 --t-max 1 --format json":
        (0, "c4554af949b6ff8f6d08e6c0f4629a321ba9b88b913ae43e7f12a4365a7457fa"),
    "picard --preset ECO_DYN_2 --t-max 1 --format csv":
        (0, "5fb22450eb8187c3d02b61abd3766aa9941ace7667d26af6bf7b6cd5301a259e"),
    "picard --preset ECO_DYN_2 --t-max 1 --format json":
        (0, "244f79d580c4103a91f3bfbefff0c56006f4ff646a6bb0d3db57e30311b38d46"),
    "compare --preset ECO_DYN_2 --t-max 1 --format csv":
        (0, "fb9c9d1a2b7d1a63efa5d6bcf02fd2bf5c0d068d487888df476cbb290306ff56"),
    "compare --preset ECO_DYN_2 --t-max 1 --format json":
        (0, "a87953b9e9643796542337029081b773accd4f2e218ed820a7e38a9f8dbfa62b"),
    "compare --preset ECO_DYN_2 --t-max 1 --with homotopy --format csv":
        (0, "4b1c631caadef00510460a3cc541c055c3210c5fbe9e7a711d84ddbd7d1e5136"),
    "compare --preset ECO_DYN_2 --t-max 1 --with homotopy --format json":
        (0, "d7a3113a2b148171e5ba2e2da392e767613177df42dca194b41f330c2275d1dd"),
    "lyapunov --preset ECO_DYN_2 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "9d1644dab9437484995768dfbec3e9abe01befe3e95c6b45b52e8ac513485fab"),
    "lyapunov --preset ECO_DYN_2 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "b0fd4293453e9b91494f6e6803ac4d8b74ab5141e5df357a0482d41322a9d346"),
    "simulate --preset CHAOS_A02 --t-max 1 --format csv":
        (0, "e242f09750d8da9c8f47f24058d7521b64a453b82e47c5d9c980e151f0d9ee2e"),
    "simulate --preset CHAOS_A02 --t-max 1 --format json":
        (0, "4fabd677730ef1a4f2e9f39889bb8dca931a86c5d06fd5684fbc81b4edf25823"),
    "picard --preset CHAOS_A02 --t-max 1 --format csv":
        (0, "9aad7b4d5907fb6dc37feb9d1a181853379eaa6636375eef47a4e1940862689f"),
    "picard --preset CHAOS_A02 --t-max 1 --format json":
        (0, "90f7c1eea2901450c5208f58513a670a35ddaa05a3d0bd7a6fb254df2585eb4f"),
    "compare --preset CHAOS_A02 --t-max 1 --format csv":
        (0, "f42ca799fcfef3a04a176b33e4ec31a3af9d59706ed6c36bf2e1646f4274b104"),
    "compare --preset CHAOS_A02 --t-max 1 --format json":
        (0, "c699dfa6deb257d1dc9e195391c8f197e58550e1f707f22be84522931cdaa95e"),
    "compare --preset CHAOS_A02 --t-max 1 --with homotopy --format csv":
        (0, "55b55405f9d74d2d65804c87574e010021c4119399c45066e904d0dd453093da"),
    "compare --preset CHAOS_A02 --t-max 1 --with homotopy --format json":
        (0, "cfe4f89f9b7fb8b7efbcc57cbbbf9723e1d7863e0241e29edef15b5cbd7d5be9"),
    "lyapunov --preset CHAOS_A02 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "503f16b4b44be45bbdda2c2f041965dc3315045bb9edee01af7ae7432e35366c"),
    "lyapunov --preset CHAOS_A02 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "7d4df80b33debdc1f46eadcd8292fa382127bf357be604a302878923abfccbd4"),
    "simulate --preset QUINTIC_A00025 --t-max 1 --format csv":
        (0, "96806874f600db0745b733029e5401269f2d71ebe64e1e7effa017ce7e4030e0"),
    "simulate --preset QUINTIC_A00025 --t-max 1 --format json":
        (0, "ca756ac4c06ba2ab0dd952cdb41b93125e2ffccba075e113a43ce06dd24a5e01"),
    "picard --preset QUINTIC_A00025 --t-max 1 --format csv":
        (0, "beba498f89e9378be8588672ea6ab5735f8c5c3346ac063e4d7274c073764653"),
    "picard --preset QUINTIC_A00025 --t-max 1 --format json":
        (0, "abf0476d1ac3059d8c91d26ed28c01baabf69b7f79757d4d839e07d95aaa2953"),
    "compare --preset QUINTIC_A00025 --t-max 1 --format csv":
        (0, "f9273a3d57999579c206fbe981ddcc08c44d6ce7d85d46bfa0c44d0959aff531"),
    "compare --preset QUINTIC_A00025 --t-max 1 --format json":
        (0, "2a3da3387b39c22c18d160319d5f137c0c1c757fadd4d8c805a5a49560ea56f6"),
    "compare --preset QUINTIC_A00025 --t-max 1 --with homotopy --format csv":
        (0, "e13d269fb5ebc704f4e9aaea8dea1779222ef9dced510e625a8022562493091b"),
    "compare --preset QUINTIC_A00025 --t-max 1 --with homotopy --format json":
        (0, "ec27d0056ea0e45bf2aa4adf21dcf8e1d31369a3b04634bf017b1b31dc8e9fe2"),
    "lyapunov --preset QUINTIC_A00025 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "77c0e57a809cd5e0c0481f1c7537d2800be977a6500ad27469ed8b69cdcbd487"),
    "lyapunov --preset QUINTIC_A00025 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "57393e0d99cd56cdefc1eb2bb14f4c780407ede1d55c18ecde729abccfe68a8a"),
    "simulate --preset QUINTIC_A0002 --t-max 1 --format csv":
        (0, "41581d23ac482eacc933befbb1aa39f7cec20d6d2c010afff837399659b3e7ad"),
    "simulate --preset QUINTIC_A0002 --t-max 1 --format json":
        (0, "940c850f701f306f81d396f310adf76466d73cefa89504dc773cb603bda43918"),
    "picard --preset QUINTIC_A0002 --t-max 1 --format csv":
        (0, "a7007a04f938da2c3c176884f6d7d164d68a1509ef202065d3580269b9d42e52"),
    "picard --preset QUINTIC_A0002 --t-max 1 --format json":
        (0, "34a222d457bd3ccd312b175ee2200f5f55d06e86efb5d2aecc1da6406489f3ab"),
    "compare --preset QUINTIC_A0002 --t-max 1 --format csv":
        (0, "aacbbe835dfe45c0ed5e0496f6d7bcf0fd061e928ff8726ccc8b9025016fe29a"),
    "compare --preset QUINTIC_A0002 --t-max 1 --format json":
        (0, "29e1e932603e414985bb75288c70311ddb1a746e4fae52a3a4847a3f964fc15a"),
    "compare --preset QUINTIC_A0002 --t-max 1 --with homotopy --format csv":
        (0, "a7d069bd8d003d692bb27e35574d34f2a40f56654fa4aa81fc8ceab0514af284"),
    "compare --preset QUINTIC_A0002 --t-max 1 --with homotopy --format json":
        (0, "e317a1cb0eb05779ef47f6661fae745f729a6f1cbdbf416a43c527a4422d9636"),
    "lyapunov --preset QUINTIC_A0002 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "0809a38becb8f79c1a3e92a666a6c1618d0f21c616149f9afd4f40bc863aae36"),
    "lyapunov --preset QUINTIC_A0002 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "62cdb2dae62f66e0e8ebffdae28b78daee84899d8cba74dc4e5556d08c51f0ae"),
    "simulate --preset QUINTIC_A000025 --t-max 1 --format csv":
        (0, "47b7db92e92375ce2012215b6623d9ff278cb8ea0deb3dbaa602ca866162d7d1"),
    "simulate --preset QUINTIC_A000025 --t-max 1 --format json":
        (0, "a601e0624044feb5a172469020b8d4a91c945f9679375ccc7e35cdc0f0b0964f"),
    "picard --preset QUINTIC_A000025 --t-max 1 --format csv":
        (0, "d48ccc77d5a6fdb523bce010f527e8615ca0e0bd4410b3859c8abfbe1520e120"),
    "picard --preset QUINTIC_A000025 --t-max 1 --format json":
        (0, "b6af2d6c10412e507ad6972fb436d7b69d0d7c5174affa89821cc3b5268d0b99"),
    "compare --preset QUINTIC_A000025 --t-max 1 --format csv":
        (0, "4f47263d0860986f6704d2dc75333e05bd53139c6585cb0d5a3ca6afd22ccbee"),
    "compare --preset QUINTIC_A000025 --t-max 1 --format json":
        (0, "00a3b7b589dce52ddc46a2060a44724d8c13aa9717851c27ed0be380b2b02d58"),
    "compare --preset QUINTIC_A000025 --t-max 1 --with homotopy --format csv":
        (0, "d09c8b11a3f5a23070e5e00217af82303cd4998def82fe03097387933388f63d"),
    "compare --preset QUINTIC_A000025 --t-max 1 --with homotopy --format json":
        (0, "cc0caeb5beaac1e8b7e60ffe39b1d1f2c4cfc37b6419efdfe99540bd43cb83d5"),
    "lyapunov --preset QUINTIC_A000025 --t-max 1 --set lyapunov.t_transient=0 --format csv":
        (0, "edf0995844b74a57996dd3c2b3f0546465e674dd3ff44be01e2325b0e7855a6a"),
    "lyapunov --preset QUINTIC_A000025 --t-max 1 --set lyapunov.t_transient=0 --format json":
        (0, "183a50cfc6953f4614805747e197e9d328f30fdd361797d1f866b19987d612dd"),
    "simulate --preset ECO_DYN_1 --t-max 1 --set run.record_stride=7 --format csv":
        (0, "92dd4fb6de759c99b01e2581b089d63d7f2c31fd5f0b3c7e621bf5c73b87c5a3"),
    "simulate --preset ECO_DYN_1 --t-max 1 --set run.record_stride=7 --format json":
        (0, "254c40af9ea0f42dbd555b9c8645c2f8633fa1320c0c4c59df71a87acfdd7ef9"),
    "simulate --preset CHAOS_A02 --t-max 1 --method euler --format csv":
        (0, "03660e3415c3af33ba90a029b7e347d681187e763f75db71890a3565d5f4cdcb"),
    "simulate --preset CHAOS_A02 --t-max 1 --method euler --format json":
        (0, "cc724d933bc0a6ae35e529417d16b1b5f04ce976cdd52dd29dbf9309cb5520fe"),
    "simulate --preset CHAOS_A02 --t-max 1 --set model.gamma=1e200 --format csv":
        (2, "f976609fd68be23c6c135466a897fca4f6591271f5e4f91f04058535f39cfff3"),
    "simulate --preset CHAOS_A02 --t-max 1 --set model.gamma=1e200 --format json":
        (2, "9d3930ffd4f336a753dfd6dad934a0afbedf5f9a7bd307c174ccf5549815b446"),
    "fd --preset FD_PAPER --set fd.n=50 --format csv":
        (0, "67ba97373131f15a75511e058f7084ed43d75278d31eac36179313cc9db650a4"),
    "fd --preset FD_PAPER --set fd.n=50 --format json":
        (0, "0d256b37082b5ba2c7425a5659c86af7e30f9559a8d0eb88e3628174f9f46caf"),
    "bifurcate --preset BIF_CASE_1 --t-max 1 --samples 6 --format csv":
        (0, "bb922acdc20425291b9e97d73c22efbc31737283aa599c8f8eaa2e40e9f213cd"),
    "bifurcate --preset BIF_CASE_1 --t-max 1 --samples 6 --format json":
        (0, "2dcce32e07f3f492ec5e736613f45faff496c33febd0a9c93bcce660f2a6a4b3"),
    "bifurcate --preset BIF_CASE_2 --t-max 1 --samples 6 --format csv":
        (0, "50797a793f44b24886eaa7fc754820a4f43564a3439aeeeeff6b0da28b753ede"),
    "bifurcate --preset BIF_CASE_2 --t-max 1 --samples 6 --format json":
        (0, "e963f8f30812c6a03c6bd8ec380c34a9886a93d0369263ad1b87528f05659357"),
    "bifurcate --preset BIF_CASE_3 --t-max 1 --samples 6 --format csv":
        (0, "addbe08e7a6f51753ffd12773a5bb0b6a2d65fc57871476e291803bfb1767f88"),
    "bifurcate --preset BIF_CASE_3 --t-max 1 --samples 6 --format json":
        (0, "9fc96d159a541f6c63b027c0b5d04b91538422aa801fee2331e89268a3e5f8dc"),
    "homotopy --t-max 1 --format csv":
        (0, "16285532b39d9d5b284db5062c264728583856673523f4a5c1d0863e4851643a"),
    "homotopy --t-max 1 --format json":
        (0, "d92f51ecc030bf727e749b7ec1595db86dc8664e7a828bf8bfe687e85f8d32fb"),
    "rates --format csv":
        (0, "79b3a69adfc1df499310939f3e49e7ecac93fd55871cc68fd9af11412924fbe0"),
    "rates --format json":
        (0, "9a41f26bc7719cc284def1e134135f5dda2f6c2bca2d07270d153dbeb127bf39"),
    "presets --format csv":
        (0, "98a31466a73d19cbc31af873373685bf3f3ab17b3317c4d06e8e87cdfc32b53d"),
    "presets --format json":
        (0, "3eb998cd12f444632dc68bf432158484a0f9833f1c560cc64f636d37d2ee2a58"),
}


@pytest.mark.parametrize("argv", list(DIGESTS))
def test_document_bytes_match_recorded_digest(argv, tmp_path, capsys):
    code, digest = DIGESTS[argv]
    path = tmp_path / "doc"
    assert main(argv.split() + ["--out", str(path)]) == code
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
