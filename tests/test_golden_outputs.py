"""Byte-level golden digests of the sampler, the multiset CSV, the search
and the solvers.

The digests pin the exact random stream layout of `noise._sample_chunk`
(every draw's shape and order, and the order of the returned outcomes), the
CSV form of a sampled multiset, and the order in which the placement search
emits minimum-norm configurations. They were computed with the per-event
sampler loop and the unpruned backtracking search, so a faster
implementation passes only if it is output-identical to those.

The smoothing-table digests pin every file of a small `smooth --technique
all` run. They were computed with one `sample_noisy` call per draw, before
independent draws were batched two at a time.

The solver digests pin `(period, loop_count, queries)` of every call and the
state each generator is left in. They were computed with the per-distance
`classical_period` and with a `pooled_lsn` that ran a separate rank test
before its nullspace, at a seed other than the CLI's.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from noisysimon.cli import FIG9_TAUS, main
from noisysimon.gf2 import BitVec
from noisysimon.lsn import LsnParams, sample_many
from noisysimon.noise import _sample_chunk, sample_noisy
from noisysimon.reductions import lsn_sample_to_lpn
from noisysimon.simon import SimonFunction
from noisysimon.solvers import (
    SamplePool,
    classical_period,
    majority_verifier,
    pooled_gauss_lpn,
    pooled_lsn,
)
from noisysimon.statevector import frames_and_support
from noisysimon.transpile import enumerate_min_configurations

SEED = 20260808
SOLVER_SEED = 31415926  # not the CLI's default seed
SOLVER_CALLS = 200
SOLVER_POOL = 4096


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def noise_variant(noise, circuit, variant):
    """The default calibration, without crosstalk, or with the readout of the
    first measured qubit set to (0, 0)."""
    if variant == "default":
        return noise
    if variant == "no-crosstalk":
        return dataclasses.replace(noise, crosstalk=0.0)
    readout = list(noise.readout)
    readout[circuit.label_of(circuit.measured[0])] = (0.0, 0.0)
    return dataclasses.replace(noise, readout=tuple(readout))


def outcomes_digest(circuit, noise, shots):
    rng = np.random.default_rng(SEED)
    out = _sample_chunk(circuit, noise, shots, rng, *frames_and_support(circuit))
    return _sha(out.astype("<i8").tobytes())


def csv_digest(circuit, noise, path):
    m = sample_noisy(circuit, noise, 8192, seed=SEED)
    m.to_csv(path, header={"seed": SEED})
    return _sha(path.read_bytes())


def configurations_digest(graph, n):
    configs = enumerate_min_configurations(SimonFunction.default(n), graph, 50)
    return _sha(json.dumps([list(map(list, c.items)) for c in configs]).encode())


def _solver_digest(results, rng=None) -> str:
    rows = [[period.value, cost.loop_count, cost.queries] for period, cost in results]
    tail = int(rng.integers(0, 1 << 62)) if rng is not None else None
    return _sha(json.dumps([rows, tail]).encode())


def classical_period_digest(n):
    results = [classical_period(SimonFunction.from_period(BitVec(n, sv)))
               for sv in range(1, 1 << n)]
    return _solver_digest(results)


def _solver_pool(n):
    """Rng, function and Fig. 9 sample vectors for the pooled-solver digests."""
    rng = np.random.default_rng([SOLVER_SEED, n])
    f = SimonFunction.default(n)
    ys = sample_many(LsnParams(n, FIG9_TAUS[n], f.s), SOLVER_POOL, rng)
    return rng, f, [BitVec(n, int(v)) for v in ys]


def pooled_lsn_digest(n, from_vectors):
    """The pool is built from the `BitVec`s, or from a plain list of their ints."""
    rng, f, vectors = _solver_pool(n)
    if from_vectors:
        pool = SamplePool.from_vectors(vectors)
    else:
        pool = SamplePool.from_ints(n, [v.value for v in vectors])
    return _solver_digest([pooled_lsn(f, pool, rng) for _ in range(SOLVER_CALLS)], rng)


def pooled_gauss_digest(n):
    rng, f, vectors = _solver_pool(n)
    zv = 0
    while BitVec(n, zv).inner(f.s) != 1:
        zv = int(rng.integers(0, 1 << n))
    samples = [lsn_sample_to_lpn(y, BitVec(n, zv), rng) for y in vectors]
    held = samples[: max(128, 4 * n)]
    verifier = majority_verifier(held, FIG9_TAUS[n])
    body = samples[len(held):]
    results = [pooled_gauss_lpn(body, verifier, rng) for _ in range(SOLVER_CALLS)]
    return _solver_digest(results, rng)


SAMPLER_CASES = [(n, 8192) for n in range(2, 8)] + [(7, 1 << 18)]
VARIANTS = ("default", "no-crosstalk", "zero-readout")

GOLDEN_OUTCOMES = {
    (2, 8192, "default"): "183b8781a93a2f87546e4dd1076eaa842caf0e1b762f3bcee05a95d141ec3920",
    (2, 8192, "no-crosstalk"): "dd3bf9c46fff849ddd739fe848b5ed94bed82e14414ca268087123cf739c5205",
    (2, 8192, "zero-readout"): "9e668ad433b5df45e3638fa1319d34aa8d73a173da77f94c25a7e9734d13ed6a",
    (3, 8192, "default"): "5e7fc409a4110347c00942af00d9a2e7887564ea8ae3262b62d9a7ee87e856cf",
    (3, 8192, "no-crosstalk"): "b541273ef8841a230a0a19e6dd840c9ef67087277e6b7752fde0514e38a51a55",
    (3, 8192, "zero-readout"): "1586cef74570d4bee13a8c8c85bce592b5b725621740317fd5ba0cc28291f4af",
    (4, 8192, "default"): "26f0505bb0a0d8e4ab8f1e25cbcfc78e737469b8b96587f45311edd8554b7b9d",
    (4, 8192, "no-crosstalk"): "195a4d59d904b718095577cf7d9480a63db7adc728312568453219932f9622ca",
    (4, 8192, "zero-readout"): "0706e972e8637c1dd0a2a026285bbdbdd96c8b5900347d9c309da583f3591e98",
    (5, 8192, "default"): "68f249ea686a0303e35dad9705c555a949244bbb7a77bc2734755f5046ecf66c",
    (5, 8192, "no-crosstalk"): "6665d2220356601ee3eda51eb63f5c6a17a99938b2e8c74ad354a5bf24afd989",
    (5, 8192, "zero-readout"): "65638fde0ef0c06605ad23c33d4dbde5a54c86f2b5f31b5603459391c678ef00",
    (6, 8192, "default"): "1e2be4bd697ede695e6c9f69d0e59a80238d3265c6e3eda90da169109566d468",
    (6, 8192, "no-crosstalk"): "c8d77381f466bc522b080d3123ab7015b98283291681680874bfbc5f58f4d797",
    (6, 8192, "zero-readout"): "21ab9767bd24c42de44c661454a0503432dfe94024969ab9d592abfee49202e7",
    (7, 8192, "default"): "b635e72cdf0d438d400f777398b9832f3b3ebb72cec21b8c4b2a160c5e5b53d6",
    (7, 8192, "no-crosstalk"): "4c0abb0dbd13d2852d762cc91ecd6a7ea52656c56dfd6220fed924f997b537fa",
    (7, 8192, "zero-readout"): "9571b9e3931b63d0a74cda06a76e97842dc621e0100bb88c56b14f0cf288d9e3",
    (7, 262144, "default"): "894e6cc33da61fb7c04858eee960b68cce13350989f39cb213e64c59fcf3be7c",
    (7, 262144, "no-crosstalk"): "5e84c347f28ca5f8e71567444fc6e16b0da972f36df65e143b07bde45549dbde",
    (7, 262144, "zero-readout"): "f69a5f0f34f419b4270bca0b2578f3c6cc2dfce2e9676b0c969e10255cbba233",
}
GOLDEN_CSV = {
    2: "2d949dc4e184f1ca12b38879f211b99ec72eb99f0bb62604ce1e3ed097d97da4",
    3: "2b8386fb12a68da7efb92841191946d85772f0e5e56f0d088d2cc7d388318622",
    4: "6836fb95e0718f278274b92d1d455124208a394a8338c00f970f67e8aeb620e0",
    5: "b013ef9c48f73aa5be4a7dde834d32f048560e178fc04d2d9d3f6b0ff02a3135",
    6: "2d11d16ae13d348e1d0129eaef455e5bdf7b234089f8a83d1d31162c0e383919",
    7: "92b1e65e7af8168c3350777566cf9484bb197b78cf85cefa311283eeaa6920cc",
}
GOLDEN_CONFIGURATIONS = {
    2: "54e04d90b46f4f46728b5d90fd00625d5f093560a5cbc5c33992f8aaed09210e",
    3: "8b8bbc67dea14077136f67274a2fa397603110ec84df0c024845ace77405e395",
    4: "368487f233111bbf13ee83969137e6fe0f4b06ff7cf2441bcdea0684aca887ea",
    5: "768e4eb68bf70a03b2ad8e05b604be7a29d9a64027018baf6f6a4cfda6051ab6",
    6: "3f5c5e3ab742ee7c3e220fb1cc74aead59f2fd0b2a88f47c81710ef9f13f2927",
    7: "26ee64de27c21b5629a77cc77f1c9896fdd2687c1ac00b97693800fef4d07340",
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n,shots", SAMPLER_CASES)
def test_sampler_outcomes_golden(compiled, noise, n, shots, variant):
    circ = compiled[n][3]
    got = outcomes_digest(circ, noise_variant(noise, circ, variant), shots)
    assert got == GOLDEN_OUTCOMES[(n, shots, variant)]


@pytest.mark.parametrize("n", range(2, 8))
def test_multiset_csv_golden(compiled, noise, tmp_path, n):
    got = csv_digest(compiled[n][3], noise, tmp_path / "m.csv")
    assert got == GOLDEN_CSV[n]


@pytest.mark.parametrize("n", range(2, 8))
def test_enumerated_configurations_golden(graph, n):
    assert configurations_digest(graph, n) == GOLDEN_CONFIGURATIONS[n]

GOLDEN_CLASSICAL_PERIOD = {
    2: "40d58d8bbad1cd600d5e835166fa3b2aadb60b1666c008cbb76cb414562ecb1e",
    3: "7f6d72cc2f0088db87533879463b9ca9fb3748460ccad5e7da778d4a06177de5",
    4: "9654b5fb5bc958ae47cf759087f989e7c402b0d7fc399235fa9fb87268b1a43e",
    5: "ccbbea81fdf07775104dde38603bec290754cc8a5a1f4a14ede92d61025419ec",
    6: "05aaa5511028d4909ee0ebc70fd81a62449fe2633990d5df5dd4ec24ca31eace",
    7: "20b9c9805754a0284a1e596830037459eb99ae925d5b674742b138bc67dbd153",
}
GOLDEN_POOLED_LSN = {
    2: "51c2dcc9f9923e3783f45c1d8f85d2b502532214d424fa56bac5bbe3bbb746fc",
    3: "3a970dfb6d2788e79ae040749cb6643192570e5ca38fe78813ed1e2413d8557c",
    4: "2e709c2f7ce95272b18facdf93f838f3f425f97cb553aa83b091fd0f91a29cb8",
    5: "3e6f1f134d65b3a15f3b8825d5532670de2cbd1a946d11631ea441338d00f02d",
    6: "21ab0f8cd681ec1ae2609d644b6f750325a9742bb8e9ac08702d57a684a77e9f",
    7: "02454a85de31600953cc8922db6b3a784274d87cb94fee4610cb35bdf8879640",
}
GOLDEN_POOLED_GAUSS = {
    2: "dddea5ca90840dae3a46df48d5e4dc2ea90da18d54be521fcb032333466f0803",
    3: "ee9113bebfed07cfebd70468dda4593df10374e4e78a6cd3d78b37a791c22306",
    4: "652c8f5eaf8dd44f8927864b441ce3ff4f1dd6f98dde4fb2e1a6304a552ebc09",
    5: "430d7b873de702017408d1a1ba7dfea59b8f12a77e6e78c4b923536290a3fadf",
    6: "0b2216e3a98b7bb88a51c38d6908d1801c94945425e03f32c1c7d5512329a0f3",
    7: "12a790fecb785998d07d403192caa8c595827c5c1a6f994f3e4b174d545ce398",
}


@pytest.mark.parametrize("n", range(2, 8))
def test_classical_period_golden(n):
    assert classical_period_digest(n) == GOLDEN_CLASSICAL_PERIOD[n]


@pytest.mark.parametrize("from_vectors", [True, False], ids=["SamplePool", "list"])
@pytest.mark.parametrize("n", range(2, 8))
def test_pooled_lsn_golden(n, from_vectors):
    assert pooled_lsn_digest(n, from_vectors) == GOLDEN_POOLED_LSN[n]


@pytest.mark.parametrize("n", range(2, 8))
def test_pooled_gauss_golden(n):
    assert pooled_gauss_digest(n) == GOLDEN_POOLED_GAUSS[n]


SMOOTH_ARGS = ["smooth", "--technique", "all", "--n", "5", "--shots", "2048", "--configs", "8"]
GOLDEN_SMOOTH_TABLE = {
    "quality_n5.csv": "29f1fe3d057c78ce5639106762acfec181b89cdcf3187ab28c0c7ceb04111109",
    "smooth_double-flip_n5.csv": "0451eb2b105d3941568332e6e431e9b274bdc9cf15de51869c1ce00167aa0a68",
    "smooth_hamming_n5.csv": "13926d5b96f6ccd09f6e728041d4ce2234a43e0539d3b41eadb002790440dafb",
    "smooth_none_n5.csv": "b83f84654248c1f9e1b4c1c98896e157688cd7028cdd234c8829ac31a27c292d",
    "smooth_permutation-double-flip_n5.csv":
        "f84e740caa948d829d9d1de78f059bf9ec9f22af7916bcfe910a2d68d6f1c7ee",
    "smooth_permutation-hamming_n5.csv":
        "e89bceb90de93f8a7fb92f8f3af8457f01e3f6d79ca0a11275ad74e192fb9a9a",
    "smooth_permutation_n5.csv": "55f21023fc0d9dd20c5504738dffcc0a4ec3a786f29995cb4ec29423a3046c4f",
}


def test_smooth_table_golden(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path)] + SMOOTH_ARGS) == 0
    got = {p.name: _sha(p.read_bytes()) for p in tmp_path.iterdir()}
    assert got == GOLDEN_SMOOTH_TABLE
