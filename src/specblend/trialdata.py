"""Trial containers, their ``.npz`` files, synthetic EEG generation, and
split planning."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import blobio


@dataclass(frozen=True)
class TrialSet:
    """Bundle of trials with aligned per-trial annotations.

    Attributes
    ----------
    signals : ndarray, float32, shape (n_trials, n_channels, n_samples)
    labels : ndarray, int64, shape (n_trials,)
        Non-negative integer class indices.
    subject_ids : ndarray, int64, shape (n_trials,)
    session_ids : ndarray, int64, shape (n_trials,)
    fs : float
        Sampling rate in Hz.
    """

    signals: np.ndarray
    labels: np.ndarray
    subject_ids: np.ndarray
    session_ids: np.ndarray
    fs: float

    def __post_init__(self):
        sig = np.ascontiguousarray(self.signals, dtype=np.float32)
        if sig.ndim != 3:
            raise ValueError(f"signals must be 3-d, got shape {sig.shape}")
        if sig.shape[0] < 1:
            raise ValueError("a trial set needs at least one trial")
        if not np.isfinite(sig).all():
            raise ValueError("signals must be finite")
        n = sig.shape[0]
        lab = np.ascontiguousarray(self.labels, dtype=np.int64)
        sub = np.ascontiguousarray(self.subject_ids, dtype=np.int64)
        ses = np.ascontiguousarray(self.session_ids, dtype=np.int64)
        for name, arr in (("labels", lab), ("subject_ids", sub), ("session_ids", ses)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if lab.min() < 0:
            raise ValueError("labels must be non-negative")
        if not self.fs > 0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        object.__setattr__(self, "signals", sig)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "subject_ids", sub)
        object.__setattr__(self, "session_ids", ses)
        object.__setattr__(self, "fs", float(self.fs))

    @property
    def n_trials(self):
        return self.signals.shape[0]

    @property
    def n_channels(self):
        return self.signals.shape[1]

    @property
    def n_samples(self):
        return self.signals.shape[2]

    def select(self, indices):
        """New TrialSet restricted to ``indices`` (order preserved)."""
        idx = np.asarray(indices, dtype=np.int64)
        return TrialSet(
            signals=self.signals[idx],
            labels=self.labels[idx],
            subject_ids=self.subject_ids[idx],
            session_ids=self.session_ids[idx],
            fs=self.fs,
        )

    def fingerprint(self):
        """Hex digest over signal bytes and annotations; used as a
        leakage guard when fitting downstream transforms."""
        h = hashlib.sha256()
        h.update(self.signals.tobytes())
        h.update(self.labels.tobytes())
        h.update(self.subject_ids.tobytes())
        h.update(self.session_ids.tobytes())
        h.update(np.float64(self.fs).tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for the synthetic two-class oscillatory dataset.

    Each trial is a rank-one spatial pattern times a class-specific
    sinusoid plus white noise.  Per subject, a random rotation is applied
    to the mixing vectors and each trial draws a random phase, so
    subjects share structure but not exact patterns.
    """

    n_subjects: int = 2
    n_sessions: int = 2
    trials_per_class_per_session: int = 50
    n_channels: int = 8
    fs: float = 100.0
    duration: float = 4.0
    class_freqs: tuple = (10.0, 22.0)
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_subjects < 1 or self.n_sessions < 1:
            raise ValueError("need at least one subject and one session")
        if self.trials_per_class_per_session < 1:
            raise ValueError("need at least one trial per class per session")
        if self.n_channels < 2:
            raise ValueError("need at least two channels")
        if len(self.class_freqs) != 2:
            raise ValueError("exactly two class frequencies are expected")
        for f in self.class_freqs:
            if not 0 < f < self.fs / 2:
                raise ValueError(f"class frequency {f} outside (0, fs/2)")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        n_samp = self.fs * self.duration
        if abs(n_samp - round(n_samp)) > 1e-9 or round(n_samp) < 1:
            raise ValueError("duration * fs must be a positive integer")

    @property
    def n_samples(self):
        return int(round(self.fs * self.duration))


def _default_mixing(n_channels):
    # Opposed amplitude ramps: class 0 loads the low channels, class 1 the
    # high ones.  Entries stay order-one so per-channel SNR is moderate.
    ramp = np.linspace(1.5, 0.5, n_channels)
    return np.stack([ramp, ramp[::-1]])


def subject_mixing_vectors(spec, subject):
    """Effective per-class mixing vectors for one subject.

    The subject's random rotation is applied to the base mixing rows;
    exposed so tests can predict per-channel amplitudes exactly.
    """
    base = _default_mixing(spec.n_channels)
    rot_rng = np.random.default_rng([spec.seed, subject, 0])
    q, r = np.linalg.qr(rot_rng.standard_normal((spec.n_channels, spec.n_channels)))
    q = q * np.sign(np.diag(r))  # fix the sign ambiguity of QR
    return base @ q.T


def generate_synthetic(spec):
    """Generate the synthetic dataset described by ``spec``.

    Deterministic: the same spec (seed included) yields byte-identical
    signals.  Trials are ordered subject-major, then session, class,
    trial index.

    Returns
    -------
    TrialSet
    """
    t = spec.n_samples
    time = np.arange(t, dtype=np.float64) / spec.fs
    signals = []
    labels = []
    subjects = []
    sessions = []
    for s in range(spec.n_subjects):
        mixing = subject_mixing_vectors(spec, s)
        trial_rng = np.random.default_rng([spec.seed, s, 1])
        for sess in range(spec.n_sessions):
            for cls in range(2):
                carrier = 2.0 * np.pi * spec.class_freqs[cls] * time
                for _ in range(spec.trials_per_class_per_session):
                    phase = trial_rng.uniform(0.0, 2.0 * np.pi)
                    noise = trial_rng.standard_normal((spec.n_channels, t))
                    trial = (
                        np.outer(mixing[cls], np.sin(carrier + phase))
                        + spec.noise_std * noise
                    )
                    signals.append(trial.astype(np.float32))
                    labels.append(cls)
                    subjects.append(s)
                    sessions.append(sess)
    return TrialSet(
        signals=np.stack(signals),
        labels=np.array(labels),
        subject_ids=np.array(subjects),
        session_ids=np.array(sessions),
        fs=spec.fs,
    )


def save_trialset(ts, path, extra_meta=None):
    """Write a TrialSet as one ``.npz`` file at ``path``: float32 signals
    and int64 labels, subject and session ids."""
    meta = dict(extra_meta or {})
    meta.update({"kind": "trialset", "fs": ts.fs})
    blobio.write_arrays(path, {"signals": ts.signals, "labels": ts.labels,
                               "subject_ids": ts.subject_ids,
                               "session_ids": ts.session_ids}, meta)


def load_trialset(path):
    """Read back a TrialSet written by :func:`save_trialset`; the round
    trip is exact."""
    arrays, meta = blobio.read_arrays(path, "trialset")
    return TrialSet(fs=float(meta["fs"]), **arrays)


SPLIT_KINDS = ("subject_dependent", "subject_independent")


@dataclass(frozen=True)
class Fold:
    """One train/val/test partition plus provenance."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    subject: int
    index: int

    def __post_init__(self):
        for name in ("train", "val", "test"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SplitPlan:
    """All folds of one evaluation protocol, with the seed that built them."""

    kind: str
    k: int
    seed: int
    folds: tuple

    def __post_init__(self):
        for f in self.folds:
            tr, va, te = set(f.train.tolist()), set(f.val.tolist()), set(f.test.tolist())
            if tr & va or tr & te or va & te:
                raise ValueError(
                    f"fold {f.index} for subject {f.subject} has overlapping partitions"
                )


def _stratified_kfold(indices, labels, k, rng):
    """Split ``indices`` into k folds, each class spread evenly.

    Per-class fold sizes differ by at most one.  Requires every class to
    appear at least k times so no fold goes without it.
    """
    per_class = {}
    for cls in np.unique(labels):
        cls_idx = indices[labels == cls]
        if len(cls_idx) < k:
            raise ValueError(
                f"class {cls} has only {len(cls_idx)} pool trials, need >= {k} for k-fold"
            )
        per_class[cls] = np.array_split(rng.permutation(cls_idx), k)
    folds = []
    for v in range(k):
        val = np.sort(np.concatenate([per_class[c][v] for c in per_class]))
        train = np.sort(
            np.concatenate(
                [per_class[c][j] for c in per_class for j in range(k) if j != v]
            )
        )
        folds.append((train, val))
    return folds


def make_splits(ts, kind, k, seed):
    """Build the fold plan for one evaluation protocol.

    Parameters
    ----------
    ts : TrialSet
    kind : {"subject_dependent", "subject_independent"}
        Subject-dependent: per subject, the earliest session is the
        train/val pool (stratified k-fold) and the next session is the
        fixed test set.  Subject-independent: leave-one-subject-out; the
        held-out subject is the test set and all other subjects form the
        pool, again k-folded.
    k : int
        Number of cross-validation folds over the pool, >= 2.
    seed : int
        Recorded in the plan; all shuffling derives from it.

    Returns
    -------
    SplitPlan
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if kind not in SPLIT_KINDS:
        raise ValueError(
            f"unknown protocol kind {kind!r}; expected one of {SPLIT_KINDS}")
    all_idx = np.arange(ts.n_trials, dtype=np.int64)
    subjects = np.unique(ts.subject_ids)
    if kind == "subject_independent" and len(subjects) < 2:
        raise ValueError("subject-independent splits need at least two subjects")

    folds = []
    for si, subj in enumerate(subjects):
        mask = ts.subject_ids == subj
        if kind == "subject_independent":
            pool, test = all_idx[~mask], all_idx[mask]
        else:
            sess = np.unique(ts.session_ids[mask])
            if len(sess) < 2:
                raise ValueError(
                    f"subject {subj} has {len(sess)} session(s); "
                    "subject-dependent splits need a separate test session"
                )
            pool = all_idx[mask & (ts.session_ids == sess[0])]
            test = all_idx[mask & (ts.session_ids == sess[1])]
        rng = np.random.default_rng([seed, si])
        for fi, (train, val) in enumerate(
            _stratified_kfold(pool, ts.labels[pool], k, rng)
        ):
            folds.append(Fold(train, val, test, subject=int(subj), index=fi))
    return SplitPlan(kind=kind, k=k, seed=seed, folds=tuple(folds))
