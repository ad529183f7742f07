"""sha256 pins of generated samples and of the graph-derived pair vectors.

A sampler or vector routine that changes a single bit of its output fails
here. A change that alters the samples on purpose (a new sampler) edits the
pins and says why.
"""

import hashlib

import numpy as np
import pytest

from pairsphere.generators import GeneratorSpec, generate
from pairsphere.graph import adjacency_vector, jaccard_vector, walk_distribution


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(a.astype("<f8" if a.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()


def _sample_sha(G, T) -> str:
    extra = (np.int64(G.prob_clips), G.weights) if hasattr(G, "weights") else ()
    return _sha(G.edges, T.membership, *extra)


def _vector_sha(v) -> str:
    return _sha(v.pair_ids, v.values)


SPECS = {
    "ppm": GeneratorSpec("ppm", n=200, k=10),
    "hppm": GeneratorSpec("hppm", n=300),
    "dcppm": GeneratorSpec("dcppm", n=400, k=20),
    "ring": GeneratorSpec("ring", k=6, s=4),
}

PINNED_SAMPLES = {
    ("ppm", 0): "0ef2480465210302cf70d16f77c6cc09010d4db29e8edd3d2ee706e616a7292d",
    ("ppm", 1): "c2bc42aaaa461b56099698c47d2f6422b37d3a675010d65209913db4fd34ea5a",
    ("hppm", 0): "e2b2e862b1b4ede25c32c3d81cb79678754f3691cc65acc560e20c7bc61f9279",
    ("hppm", 1): "b209b450e1f53474ab52809eb671095120ae3cba2dacb30f8f593fb04c0e5a41",
    ("dcppm", 0): "f3fdbddd93de31252d7c586e1764e04da3ff4588508743f491889b38379b8ea9",
    ("dcppm", 1): "61c4e8557055c121ed8b9cc131d30cce5bdcb8a068eccb08d88a7b0166c89cf1",
    # the ring is deterministic: both seeds give the same graph
    ("ring", 0): "007e409291d03f058b761b8f133c124c538405f5b83931614e894ceb91534266",
    ("ring", 1): "007e409291d03f058b761b8f133c124c538405f5b83931614e894ceb91534266",
}

PINNED_DCPPM_CLIPS = {0: 97, 1: 118}


@pytest.mark.parametrize("family,seed", list(PINNED_SAMPLES))
def test_samples_pinned(family, seed):
    G, T = generate(SPECS[family], seed)
    assert _sample_sha(G, T) == PINNED_SAMPLES[family, seed]
    if family == "dcppm":
        assert G.prob_clips == PINNED_DCPPM_CLIPS[seed]


VECTORS = {
    "adjacency": adjacency_vector,
    "jaccard": jaccard_vector,
    **{f"walk-t{t}": (lambda G, t=t: walk_distribution(G, t, isolated="zero")) for t in range(1, 6)},
}

PINNED_VECTORS = {
    "ppm": {
        "adjacency": "769a1f234f539092b762b21ffd693a376c6e2a5011c63d1ca73b191212f7b91e",
        "jaccard": "2a2ab44883f1463d872d2b71ae34423ea8f8377edd6068b139ac4a17e20038d4",
        "walk-t1": "f98bac51ce6dbb6002bd52fac009915e6e0d619c02815315d5c07c23ddfe4a2e",
        "walk-t2": "585216e57a55e47697e2118697abac3f18c62d916bbd0733975244e13bc5639b",
        "walk-t3": "67dc0133bdaec14ce83728aebece3e60f3098a8afd8fd035dbc92677172903f4",
        "walk-t4": "4338a5e0209bbe69c117191d2b7798e8dd2b05d2281f4a11934e07d93266f452",
        "walk-t5": "b60eda9dea1debc87168bee32a15a051b24336decc515332bddd3a1b2d37cb55",
    },
    "dcppm": {
        "adjacency": "628af706fd59b7a31b89d70ce187cbd011808b4fd421d741ea2a59d591f1e412",
        "jaccard": "2a0188617559a09729c4db618bc43910615af5f5df17b14c6a096b841c22d6ab",
        "walk-t1": "86e118e05544763ee275d21d8356db24b8c16cc95a417529a7d78da8e5bd8389",
        "walk-t2": "26b72d090f2c462948df75009b860ca56e5581f1b4dcb90968d4e051ac8816cd",
        "walk-t3": "33811f0fd231c45e3c59d4719f0366e67e132e512dfe0b78a6cdd22ef18cddb9",
        "walk-t4": "3928c56e1fb8fcde6e3dc017e1036e3d46b3f137878e0485d85ed0d291348195",
        "walk-t5": "5ef90b95c65407db2127171df8c602f78dd239166f641bdae1a3f366f3402a60",
    },
}


@pytest.mark.parametrize("family", list(PINNED_VECTORS))
def test_graph_vectors_pinned(family):
    G, _ = generate(SPECS[family], 1)
    got = {name: _vector_sha(fn(G)) for name, fn in VECTORS.items()}
    assert got == PINNED_VECTORS[family]
