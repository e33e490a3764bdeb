"""Golden gate for the Hausdorff scan: bit-identical reports on a fixed panel.

Each digest is the SHA-256 of ``json.dumps(report.to_dict(), sort_keys=True)``
for one ``check_f_sequence`` call, so every report field (the
``lp_statistic`` list included) is pinned to the last bit of its ``repr``.
The panel covers the exact path (built-in rules, every f-mode, rows up to
200 and one run at the ceilings N = 1000, n_max = 800) and the float path
(seeded noisy coefficients, rows up to 60).  A change to the difference
kernel, the binomials or the weight conversion that moves any field fails
here.

To print the digests of the current code: ``PYTHONPATH=src python tests/test_hausdorff_gate.py``.
"""

import hashlib
import json

import pytest

from cutjump import corpus, moments

POWER = ("harmonic", "normalized_rational", "rational_unnormalized")
EXACT_ROWS = (0, 1, 2, 40, 120, 200)
NOISY_ROWS = (0, 1, 2, 40, 60)
NOISY_N = 60
NOISY_SEED = 7


def _panel() -> dict:
    """name -> (problem id, N, epsilon, f-mode, n_max)."""
    panel = {}
    problems = [(p, ("none", "k_plus_1", "k")) for p in POWER] + [("thermal_boson_demo", ("k", "k_plus_1"))]
    for problem, modes in problems:
        for mode in modes:
            for n in EXACT_ROWS:
                panel[f"{problem}_{mode}_n{n}"] = (problem, max(n, 1), 0.0, mode, n)
            for eps in (1e-3, 1e-8):
                for n in NOISY_ROWS:
                    panel[f"{problem}_{mode}_eps{eps:g}_n{n}"] = (problem, NOISY_N, eps, mode, n)
    panel["normalized_rational_none_ceiling"] = ("normalized_rational", 1000, 0.0, "none", 800)
    return panel


PANEL = _panel()

GOLDEN = {
    "harmonic_k_eps0.001_n0": "97bda00c7614bd675232c859d26140fbfa04e0c412748e2c909b889bc8729525",
    "harmonic_k_eps0.001_n1": "487e2d896ade0a35f41ab38f95b32c895904092a44b604e0a47fb4b7fc1267b4",
    "harmonic_k_eps0.001_n2": "2fd807412958a69330f93797490a5b134ccbacef2c348f3291248e6215ce2442",
    "harmonic_k_eps0.001_n40": "acc023743c087e32290803dc4acafeedf18dc6ee664fe7deff868f06e55c0067",
    "harmonic_k_eps0.001_n60": "1f6d4c5b4fb487f2b11f3dcc4d44210c1e17fc2efeb217339ab15cd25a2055c1",
    "harmonic_k_eps1e-08_n0": "97bda00c7614bd675232c859d26140fbfa04e0c412748e2c909b889bc8729525",
    "harmonic_k_eps1e-08_n1": "9860c37787d5789762617cae32e518e4c8c524e5c1b86ddffe59e304005ffe8d",
    "harmonic_k_eps1e-08_n2": "4da756734086b26e3e6a666603a717e23585f19fe6730ff6d84d044413821140",
    "harmonic_k_eps1e-08_n40": "46623f8b6acf8e8f729055be1c6a67cb64639fc31749a84cf4d78b1088ec42e9",
    "harmonic_k_eps1e-08_n60": "21d296c8dd25ce0fa8b0e35f8841942d66f16b5d828a969786770668aa34d02e",
    "harmonic_k_n0": "97bda00c7614bd675232c859d26140fbfa04e0c412748e2c909b889bc8729525",
    "harmonic_k_n1": "77df9f7432ae419d801333acd4069378e40f5cbd23f9dddffbf284f572c6ff94",
    "harmonic_k_n120": "9d9f88ccc1e8d6d10b06d06a1bd280368cbe1b0ef96a4a53dadd0deac2e326c5",
    "harmonic_k_n2": "d0c7217c497b7ba61d81ac86d767b5e9653a1f0bc5df7c7a0e0f67a2bc2a0d29",
    "harmonic_k_n200": "a1277a197a7ebb9dd026a77da9936a69159e4c7bac6f12de120891003e72505f",
    "harmonic_k_n40": "719fe6ef3ba8851f795885f98b39b5c78df4ee3560a0bbe6221f303efbdebcb7",
    "harmonic_k_plus_1_eps0.001_n0": "2a2fe05c8caea9b9a171bbd9aa02236ff24e9f38a9395985fb54abf865de54ed",
    "harmonic_k_plus_1_eps0.001_n1": "eb1a597f8aa07b3790fbe3b6999177a9364d3d9a2e4e6f69e9593d68313679f1",
    "harmonic_k_plus_1_eps0.001_n2": "dd6dd9363e71f57447fe9138bbcca555ad72255a5eac353a9d14bf6927aefcf0",
    "harmonic_k_plus_1_eps0.001_n40": "057c2af1fdc76185751fb78922f060ae90b917a9b8930dff15512e658629233c",
    "harmonic_k_plus_1_eps0.001_n60": "754a92f40b833c8b4654ee022a42c05494afb24dd26d1de1587ec7d4debb915c",
    "harmonic_k_plus_1_eps1e-08_n0": "a855e86c4d7d3d39efac61aa8d2ae29f70ec4f9300d5c7202435b0a480dda23c",
    "harmonic_k_plus_1_eps1e-08_n1": "4f802a01754092b498db6078e34085b472f8c8f22d53f14bd9c0cfbd706bf786",
    "harmonic_k_plus_1_eps1e-08_n2": "78bfb560618fa8a084d3e9e6a23da7585611c7ac77990a17e5263eed96d09ae1",
    "harmonic_k_plus_1_eps1e-08_n40": "d03d753d63153197d8441728b32843e9b99d261c87a6d42fc00a6459efbc47df",
    "harmonic_k_plus_1_eps1e-08_n60": "d4f8ee230efad62cbc9d44e28eb06171c83186d5fd844b87aa2489674fab5f3f",
    "harmonic_k_plus_1_n0": "fc7593b8b24bb37f51998c121b083c5ad6de7b4bd4be2362e2a7199375fa6a7f",
    "harmonic_k_plus_1_n1": "b752354ccb49bbfe06d2589d6454559afe7018f9c7fb9fde0659f4371732845c",
    "harmonic_k_plus_1_n120": "22e24c91f59fda8e49d30a330bbe4ee9f68a1f6c484b778ddd61008fa1dd4e81",
    "harmonic_k_plus_1_n2": "3fb1ee6df77da7baba7e753d72e4dafbc0b08a083d29c092646f65f0f94aada4",
    "harmonic_k_plus_1_n200": "bd13a962a9cd35ad23903520f16b502b58f219ec06525c17ad0e8ce6d3f7c993",
    "harmonic_k_plus_1_n40": "63149362dd8c54d5acd59e19d5bf422ce6b45ee1aedae89b43a3a613cb01ed18",
    "harmonic_none_eps0.001_n0": "2a2fe05c8caea9b9a171bbd9aa02236ff24e9f38a9395985fb54abf865de54ed",
    "harmonic_none_eps0.001_n1": "cfdb0f1ac9b609c7855a1e60e0ccdf3a36fcabb5385863d4883129f9982ce743",
    "harmonic_none_eps0.001_n2": "b6d47bbdfc0607619d3be59a71d6939c7ad3f935f083d9fa44065f1b73f5cf4f",
    "harmonic_none_eps0.001_n40": "edd084089485c34733a9ef6e43951a0e29e55f2e42ce86ea243d7ee9bedb5ab0",
    "harmonic_none_eps0.001_n60": "ccd3430f12aee8fbbc8424153e870dd9df5e3013dd5b2e2323dfeeebe65cdddc",
    "harmonic_none_eps1e-08_n0": "a855e86c4d7d3d39efac61aa8d2ae29f70ec4f9300d5c7202435b0a480dda23c",
    "harmonic_none_eps1e-08_n1": "9ae70607ddb45f216119c6138eba47c7822e9700c9c42ad458eec758fc47b2f6",
    "harmonic_none_eps1e-08_n2": "092790d8d6e1e3bbeb8bdc51809a96140eee873d88d640feb926495aee9d302c",
    "harmonic_none_eps1e-08_n40": "d8a30b73d506930bbf1fef71edb8237b12285ebf38c2772a97452f6774034773",
    "harmonic_none_eps1e-08_n60": "882df3287d3941b23f01583b4a09b5a25f6c7e72ca6aadcee2c052b8e67a8ad8",
    "harmonic_none_n0": "fc7593b8b24bb37f51998c121b083c5ad6de7b4bd4be2362e2a7199375fa6a7f",
    "harmonic_none_n1": "8728b336bbb04fc3d1dc14db45ba49f41812f233e737ea4685621de96e783ead",
    "harmonic_none_n120": "fb6edd511f8c27ecd1df1710f5147e37d84411e5dd13b538e42b9e9296d2149e",
    "harmonic_none_n2": "4f6795c6bcbf305e4a76c53e765419a40c68d58dc17d562fd0c0240b0aa99371",
    "harmonic_none_n200": "ba295e7d2677c2e668d637abca80eca0348c8698f38518d4d8a229c35b758348",
    "harmonic_none_n40": "dedc16005a98c63930361525d7dc7609e460de0c10a4b2194722de86ca735078",
    "normalized_rational_k_eps0.001_n0": "97bda00c7614bd675232c859d26140fbfa04e0c412748e2c909b889bc8729525",
    "normalized_rational_k_eps0.001_n1": "487e2d896ade0a35f41ab38f95b32c895904092a44b604e0a47fb4b7fc1267b4",
    "normalized_rational_k_eps0.001_n2": "537fdca163967c743cf0bff33ed294d0ca9f740f4c7b48592bac16957848c7e3",
    "normalized_rational_k_eps0.001_n40": "d0093fef50e00061a1bec655f9ea91ceb57aab5d350ebd55d675cd89ed96e91b",
    "normalized_rational_k_eps0.001_n60": "b89aef9ad9712d8cfee7e1291fb36473b7d0638172002a42f05c7601248b0177",
    "normalized_rational_k_eps1e-08_n0": "97bda00c7614bd675232c859d26140fbfa04e0c412748e2c909b889bc8729525",
    "normalized_rational_k_eps1e-08_n1": "9860c37787d5789762617cae32e518e4c8c524e5c1b86ddffe59e304005ffe8d",
    "normalized_rational_k_eps1e-08_n2": "b7cbcc528eefc5e79fc12845df9f40cca75939fea550dfabe54223cc21aa7cda",
    "normalized_rational_k_eps1e-08_n40": "a934451bf1ab6ea5a94d1afe6acdb2a2496ac758aec0a928462a4879ab0c9f44",
    "normalized_rational_k_eps1e-08_n60": "8029df037775aada61047ecf7271d6a4a2566056ba4d140d3fffcec72c2ff6d7",
    "normalized_rational_k_n0": "97bda00c7614bd675232c859d26140fbfa04e0c412748e2c909b889bc8729525",
    "normalized_rational_k_n1": "77df9f7432ae419d801333acd4069378e40f5cbd23f9dddffbf284f572c6ff94",
    "normalized_rational_k_n120": "fb1fb7ff184f012276565e542d6bfad522b2c4dabd819ddf508d80246adb64e2",
    "normalized_rational_k_n2": "cfd3876bc25910903a88c7d534e9287a1b9ffbcb0373aabf67b79aa9addb2a51",
    "normalized_rational_k_n200": "36dabd4b0262334efcbd8dcb1c0f27b1df40982cf63af4b87c0a8ffd3d4abaf7",
    "normalized_rational_k_n40": "b2fbdf452254a8ae445385fb5ae57f2a9e5d681e5ee3bbdb31710d7cdefc4528",
    "normalized_rational_k_plus_1_eps0.001_n0": "2a2fe05c8caea9b9a171bbd9aa02236ff24e9f38a9395985fb54abf865de54ed",
    "normalized_rational_k_plus_1_eps0.001_n1": "eb1a597f8aa07b3790fbe3b6999177a9364d3d9a2e4e6f69e9593d68313679f1",
    "normalized_rational_k_plus_1_eps0.001_n2": "ad08b18ec28549258cfc9a36cb2c203c908adda50740c10aa1ddd12a6ff16927",
    "normalized_rational_k_plus_1_eps0.001_n40": "5ccce5a4c8ff025b703182aec75c25473d5e7779ab876a19295a77f3a1403869",
    "normalized_rational_k_plus_1_eps0.001_n60": "ca6063db908b2e906fedd22abadb2d1e5dfd6ee70c19e8105b8e8fdf5cad0e85",
    "normalized_rational_k_plus_1_eps1e-08_n0": "a855e86c4d7d3d39efac61aa8d2ae29f70ec4f9300d5c7202435b0a480dda23c",
    "normalized_rational_k_plus_1_eps1e-08_n1": "4f802a01754092b498db6078e34085b472f8c8f22d53f14bd9c0cfbd706bf786",
    "normalized_rational_k_plus_1_eps1e-08_n2": "cae43cd0ec37472b3e6165bac24ab5c641a33aa03bc8d3b90550c8f380b74aa7",
    "normalized_rational_k_plus_1_eps1e-08_n40": "453993f67cd358e532400e240e87830419c920339db8a88a2d33c5f6c09d2828",
    "normalized_rational_k_plus_1_eps1e-08_n60": "849da85db87535636a7112aa6ad207388afbfaf67d1ee3ec60d216e9c070ec70",
    "normalized_rational_k_plus_1_n0": "fc7593b8b24bb37f51998c121b083c5ad6de7b4bd4be2362e2a7199375fa6a7f",
    "normalized_rational_k_plus_1_n1": "b752354ccb49bbfe06d2589d6454559afe7018f9c7fb9fde0659f4371732845c",
    "normalized_rational_k_plus_1_n120": "1169a9dfc4c0ae9c8f96358a6bfe7a7cae2ac73be4471f0b05508d830efe2c2b",
    "normalized_rational_k_plus_1_n2": "46a518b1389de41d3e820f06f717d8408a7b8c144c52beaa2bfc07049c9c43b6",
    "normalized_rational_k_plus_1_n200": "f84d371e329fbeca730a9d37a3c0cf4efa082f75c45eab805ecf59570947a31d",
    "normalized_rational_k_plus_1_n40": "012b78855ae75e9b8562186dbfeb2280d4808740ff263550a5fbb167567e287f",
    "normalized_rational_none_ceiling": "65864ca5eafc6abe8ba6f6bbe4db8c63e5bcbe12b8b03d36e219b481bf180b79",
    "normalized_rational_none_eps0.001_n0": "2a2fe05c8caea9b9a171bbd9aa02236ff24e9f38a9395985fb54abf865de54ed",
    "normalized_rational_none_eps0.001_n1": "cfdb0f1ac9b609c7855a1e60e0ccdf3a36fcabb5385863d4883129f9982ce743",
    "normalized_rational_none_eps0.001_n2": "8abf32ef1ebead15bf98cc05179b0e02ec9f6c6443df618e8553b47551c5e80c",
    "normalized_rational_none_eps0.001_n40": "e3c11063daf9888bef42ec561e74051e78ab07279904d544dbbcba7a4529e84f",
    "normalized_rational_none_eps0.001_n60": "ba7db8d11d10bb76bbcdf436d26bcf90e9d52c4985c5e1449eb40d1730104e36",
    "normalized_rational_none_eps1e-08_n0": "a855e86c4d7d3d39efac61aa8d2ae29f70ec4f9300d5c7202435b0a480dda23c",
    "normalized_rational_none_eps1e-08_n1": "9ae70607ddb45f216119c6138eba47c7822e9700c9c42ad458eec758fc47b2f6",
    "normalized_rational_none_eps1e-08_n2": "213a8bff585b865cac432d9274fc655ba9bea34bd0a474cf4a3168f2c2d32694",
    "normalized_rational_none_eps1e-08_n40": "17af74486ded7357279284b8cd92dea32207f49a2a240b766d300906a5c6efe7",
    "normalized_rational_none_eps1e-08_n60": "aae92f598bdf1f66a9a0622085dfa84cb2f29e13dd260fad4e3ee6ab64b4442b",
    "normalized_rational_none_n0": "fc7593b8b24bb37f51998c121b083c5ad6de7b4bd4be2362e2a7199375fa6a7f",
    "normalized_rational_none_n1": "8728b336bbb04fc3d1dc14db45ba49f41812f233e737ea4685621de96e783ead",
    "normalized_rational_none_n120": "3c1b6e98929525ca18946c7a37f2564a29deec6cc7926f2c19b831cd4251c124",
    "normalized_rational_none_n2": "daad1cf4907d1c095c1087b2dd8b4a20cdc2d48f3541b66d6cd0eb4921367490",
    "normalized_rational_none_n200": "8b2e2e47e0aa92ac0bdf14a51f6bdf87d2ecf127ea4f7681bd674808de6531bb",
    "normalized_rational_none_n40": "f2a2505721ddf2ed934094ca114b937204d5efb8a8fe323ba0c04084ecc17d9b",
    "rational_unnormalized_k_eps0.001_n0": "97bda00c7614bd675232c859d26140fbfa04e0c412748e2c909b889bc8729525",
    "rational_unnormalized_k_eps0.001_n1": "a3e5ce7462cfae52469441d8a3f38365430dedcd377b2caa1a47bacd84b02de0",
    "rational_unnormalized_k_eps0.001_n2": "cb3ed5514f9cf59b92e51fc5b5563957a3107da2e4f546d55bbba116a9bc13ae",
    "rational_unnormalized_k_eps0.001_n40": "4ac1b0a61cb06d151f62ed1b54e1dfb6c746bbbf2881bea9d4c57437a37591e1",
    "rational_unnormalized_k_eps0.001_n60": "6eeb8c2b15b583089e44cc4cd3da1877a1c89626ac77bafee3642b35bb4c4045",
    "rational_unnormalized_k_eps1e-08_n0": "97bda00c7614bd675232c859d26140fbfa04e0c412748e2c909b889bc8729525",
    "rational_unnormalized_k_eps1e-08_n1": "a36fda187a0eccee84f2926fd4eab3cfaf5c7c108824123ba66d167894792aaa",
    "rational_unnormalized_k_eps1e-08_n2": "6da730e9f9a44451a6d5142ba4863c10a02d3cae8c547a661770019c8ecf55d8",
    "rational_unnormalized_k_eps1e-08_n40": "51cce6be5dc292efd0eaa6fd04772455b7568e02ae60b0f736d910414ddf1eed",
    "rational_unnormalized_k_eps1e-08_n60": "93fc735b2128e0c8e2425cd31c78cf254802178bd2f556fb2765ae5cb8dbd8bb",
    "rational_unnormalized_k_n0": "97bda00c7614bd675232c859d26140fbfa04e0c412748e2c909b889bc8729525",
    "rational_unnormalized_k_n1": "09175e26233fa40f03f345d76b044ae347a3135fd697343f6338375e6a9dc678",
    "rational_unnormalized_k_n120": "43fd38e2d2886b6be846cc936398fa7623434bf8abec6afef7d888762fc707bd",
    "rational_unnormalized_k_n2": "a2d77bf8e2851ee227d6650ee5c2c7d354478a301200e23c07e6b7d3b1c2ad50",
    "rational_unnormalized_k_n200": "da79142f0e102a7ae1dd1fd0b33f2c17a91615450a65df9cfb5773fd39a863ef",
    "rational_unnormalized_k_n40": "756fa59b571e1024314845e1ef241bdb76178cf75f7d738423d439609c1897b5",
    "rational_unnormalized_k_plus_1_eps0.001_n0": "672b30a978a161e89fff95cc386e7d01281180a93d52fe522233fdb521740db8",
    "rational_unnormalized_k_plus_1_eps0.001_n1": "784f12d9ab0a71c312cbb3e9a469810f24a79a9d8c1e57f0dff0a37d705529a1",
    "rational_unnormalized_k_plus_1_eps0.001_n2": "c178baf3164aa0f596db2639e48e7c103683022024ae43123e34c4c73f6d1f75",
    "rational_unnormalized_k_plus_1_eps0.001_n40": "33d50d87c8026b1cf5eda62c74bc9966b8381f37fecd323d24dd3f4712ff3580",
    "rational_unnormalized_k_plus_1_eps0.001_n60": "859c0bade24397607fdcb251197de3fa9959a872cc3348ee7a20abd782b19c08",
    "rational_unnormalized_k_plus_1_eps1e-08_n0": "11b97889818950755dfeda1194e58474480a8307e07dab4feadf9a6382bc0eea",
    "rational_unnormalized_k_plus_1_eps1e-08_n1": "9379db73370501501378ce9c19c77292302b674ec0b844b7088e5599616e396c",
    "rational_unnormalized_k_plus_1_eps1e-08_n2": "a142899a3dcd8622c46f4e95ae393c4ccb3a9379c096146c96a1ca9c91e5d59b",
    "rational_unnormalized_k_plus_1_eps1e-08_n40": "841b00e1f87a9866d531106edba67e7f01cfb6ce2518b01c5a1a2adc7a97e9df",
    "rational_unnormalized_k_plus_1_eps1e-08_n60": "5efa27f8bdf7e1ea47c8ea689d91454a746910b12ff5c88ce3c00e948c874cd1",
    "rational_unnormalized_k_plus_1_n0": "b949a5f83d1ebc90a8e829ace9abfa8a3a860277b437fea6353fb82a5edee278",
    "rational_unnormalized_k_plus_1_n1": "f723eadac37f6be4730d6268cf52b3168450bebabbc0f9f757e22f802bc67118",
    "rational_unnormalized_k_plus_1_n120": "70e255db59e6c094ec825c3894bee0ff3f2ff3ec9abcdf81ccdb3d80cb02df8c",
    "rational_unnormalized_k_plus_1_n2": "b7103e9f42c4819c91bea42a61f6ed4d907a6fd00e293385697868217d794821",
    "rational_unnormalized_k_plus_1_n200": "59f7ceee5d260c8a9c99a4e0f5d770ed426b47049d0b75d8b1130d93f4f767e7",
    "rational_unnormalized_k_plus_1_n40": "89148173247cd7a8dbd55148a9a7e0548e8c1b1b891e54acb06167cc49f0614d",
    "rational_unnormalized_none_eps0.001_n0": "672b30a978a161e89fff95cc386e7d01281180a93d52fe522233fdb521740db8",
    "rational_unnormalized_none_eps0.001_n1": "dc1b0558ca9c6dec2f63ff794ad5a79381cc2ca15e6010c14a291d7849031f9e",
    "rational_unnormalized_none_eps0.001_n2": "ae9283d3ffff22957f923014a1f04cfa560b5a7ab0dc5f25c70c4aec7af22671",
    "rational_unnormalized_none_eps0.001_n40": "e15f410773caefad156bb09854afbc7624fc41395a4039bb78be050e18ed2fff",
    "rational_unnormalized_none_eps0.001_n60": "00173c74643fad94faf1dade474a90d6e38c8199acfd9203740f143f190594c5",
    "rational_unnormalized_none_eps1e-08_n0": "11b97889818950755dfeda1194e58474480a8307e07dab4feadf9a6382bc0eea",
    "rational_unnormalized_none_eps1e-08_n1": "d850668e9710747a59eb1d77d7453b2f07b07761c8ff53d4bec3e55692ed6967",
    "rational_unnormalized_none_eps1e-08_n2": "3c129cd4045c7c6fd1f08d720150f08eaaea082a8777678283d3176c51c51718",
    "rational_unnormalized_none_eps1e-08_n40": "0836711b3855f0fef9b106efd035d45f70df005aa681c87f7325b2e71be3bb52",
    "rational_unnormalized_none_eps1e-08_n60": "f2110d7a5e4627dc159b206847edd562ee210667cb1e9c80f05bc5bab1d0782f",
    "rational_unnormalized_none_n0": "b949a5f83d1ebc90a8e829ace9abfa8a3a860277b437fea6353fb82a5edee278",
    "rational_unnormalized_none_n1": "df8f6b309e00d5e75419ae076ead659adea2715fcde126227ad58bb0a1ad2913",
    "rational_unnormalized_none_n120": "c030b5e8a2894a682bc048316eb090bca1ce03ef2ef77ebff81419e33dbc672d",
    "rational_unnormalized_none_n2": "7972509d0c9a980cb9c7434eb8b1fab73e096048669b86cbaeff5cc7b42b32cc",
    "rational_unnormalized_none_n200": "5a0ce49f9857dfdce7c3b8f4698036ce6db99bbe7b631060ddd45cf9b0774298",
    "rational_unnormalized_none_n40": "d4336d4ec09e4c86b75cb3152f54e29452c831c9a150b5c5a56bb413a9e8899e",
    "thermal_boson_demo_k_eps0.001_n0": "97bda00c7614bd675232c859d26140fbfa04e0c412748e2c909b889bc8729525",
    "thermal_boson_demo_k_eps0.001_n1": "bb4c9a9f1f8700f3df9641b539d7ac9da387ea4de9c2ca3124b42cdf90c7e454",
    "thermal_boson_demo_k_eps0.001_n2": "3f212fad1596806e46f8ce45396a00b45eefae74587c91be6b1d1d06e7ef39ad",
    "thermal_boson_demo_k_eps0.001_n40": "b78611349e5f874063ce948453c7aa03f2f1a9f5c1a345a270a20bcb37f90bc0",
    "thermal_boson_demo_k_eps0.001_n60": "322c191807d371f4ad945189f0a408062a5c6c9950cf714ff88359d2034999be",
    "thermal_boson_demo_k_eps1e-08_n0": "97bda00c7614bd675232c859d26140fbfa04e0c412748e2c909b889bc8729525",
    "thermal_boson_demo_k_eps1e-08_n1": "6034d404099dfe20836b39f5787829f2a622e02d4f69d4fb08db350d1b6a72c6",
    "thermal_boson_demo_k_eps1e-08_n2": "fea9ce62ea0acc05db88376e1cbb4ef02af99be93cf68db74f0fcef54630d693",
    "thermal_boson_demo_k_eps1e-08_n40": "e3b8b7fa4171741f2bf67d3f7c433639909ebd531584948f3904667cd4b1f662",
    "thermal_boson_demo_k_eps1e-08_n60": "624be3eff5410e2b0a9186b7c4c59a250f04efa1c22f1e058b5e6a851496da00",
    "thermal_boson_demo_k_n0": "97bda00c7614bd675232c859d26140fbfa04e0c412748e2c909b889bc8729525",
    "thermal_boson_demo_k_n1": "77df9f7432ae419d801333acd4069378e40f5cbd23f9dddffbf284f572c6ff94",
    "thermal_boson_demo_k_n120": "fb1fb7ff184f012276565e542d6bfad522b2c4dabd819ddf508d80246adb64e2",
    "thermal_boson_demo_k_n2": "cfd3876bc25910903a88c7d534e9287a1b9ffbcb0373aabf67b79aa9addb2a51",
    "thermal_boson_demo_k_n200": "36dabd4b0262334efcbd8dcb1c0f27b1df40982cf63af4b87c0a8ffd3d4abaf7",
    "thermal_boson_demo_k_n40": "b2fbdf452254a8ae445385fb5ae57f2a9e5d681e5ee3bbdb31710d7cdefc4528",
    "thermal_boson_demo_k_plus_1_eps0.001_n0": "8f5a855ca2cf631b4ba454acdee2b56835b05a9262be6f49b2bfd7b6598f9f3a",
    "thermal_boson_demo_k_plus_1_eps0.001_n1": "93afa5c67e8c7c5471c4cf29201079196ae576f070b72902d4a011a156b9b0c1",
    "thermal_boson_demo_k_plus_1_eps0.001_n2": "4ced92692067657cdd0cc2f20af9eb28ed88ba5da49b0fae291f319acca9fce2",
    "thermal_boson_demo_k_plus_1_eps0.001_n40": "7d6f58501b11ae7f29bd8026c6d4800164370365ed53e80c215ecb164661d005",
    "thermal_boson_demo_k_plus_1_eps0.001_n60": "029948207de0eecc2daac5b0bc62299ed8080c239f8b86f498fa363c8efc334e",
    "thermal_boson_demo_k_plus_1_eps1e-08_n0": "8f5a855ca2cf631b4ba454acdee2b56835b05a9262be6f49b2bfd7b6598f9f3a",
    "thermal_boson_demo_k_plus_1_eps1e-08_n1": "1e2f99f7258fe9c3e05052068755e9da42a7059764884f912a419be184094597",
    "thermal_boson_demo_k_plus_1_eps1e-08_n2": "8fdd3c5107940f54168555db791ba27051ae320fa211ce73c5697ef27e6f82b0",
    "thermal_boson_demo_k_plus_1_eps1e-08_n40": "cd3bf390f5e0ad4939c8027136877fa60b807c13e6ff43658d67f478f87d277e",
    "thermal_boson_demo_k_plus_1_eps1e-08_n60": "0ad5f623bee0b3ba99d98724ad1508131c575bab047e09cb363374bf0355fdc1",
    "thermal_boson_demo_k_plus_1_n0": "8f5a855ca2cf631b4ba454acdee2b56835b05a9262be6f49b2bfd7b6598f9f3a",
    "thermal_boson_demo_k_plus_1_n1": "361cfbb66e00d5cca3cbe2d91894e77b0bd75cb8e7f5e34ccd6f2412a8d2c97f",
    "thermal_boson_demo_k_plus_1_n120": "d9fa5eb17df3a4c23936c8b19dbb586dabb68cef0bab55f987ad716fb978ad12",
    "thermal_boson_demo_k_plus_1_n2": "1e273aa146ad8fb108b7de272c56e165c96f729388f039ed35e4119cc9f036e1",
    "thermal_boson_demo_k_plus_1_n200": "70a5533e43d0b45c5a9c265f9d7fdd77204dd0d8ac37a9072674e93f9140d771",
    "thermal_boson_demo_k_plus_1_n40": "727f00a24660622caacb78e14184c1ccd0d3ba5a16f73cd8672d910edcad98cf",
}


def digest(name: str) -> str:
    problem, n_coeffs, eps, mode, n_max = PANEL[name]
    spec = corpus.builtin(problem)
    if eps:
        cs = corpus.coefficients(spec, n_coeffs, epsilon=eps, seed=NOISY_SEED)
    else:
        cs = corpus.coefficients(spec, n_coeffs)
    report = moments.check_f_sequence(cs, mode, n_max=n_max)
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def test_panel_is_pinned():
    assert sorted(GOLDEN) == sorted(PANEL)


@pytest.mark.parametrize("name", sorted(PANEL))
def test_hausdorff_report_matches_golden(name):
    assert digest(name) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = " + json.dumps({name: digest(name) for name in sorted(PANEL)}, indent=4))
