"""The benchmark workloads: input make-up, folds and training schedule.

Every workload uses the acceptance-6 trial shape: 8 channels, 100 Hz,
4 s trials (t=400), u=4 and the default 9-band bank, so the network sees
36 tensor channels.  Inputs come from ``generate_synthetic`` seeded with
the benchmark's ``--seed``; the split plan and the training generators
take the same seed.  ``early_stop_patience`` lies above ``max_epochs``,
so every fold trains exactly ``max_epochs`` epochs and the amount of
work never depends on the training trajectory.  Each workload runs
fold 0 of its split plan and decodes that fold's test trials.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_subjects: int
    trials_per_class_per_session: int
    kind: str
    k: int
    batch_size: int
    max_epochs: int
    lr_init: float
    min_auc: float
    need_post_warmup: bool = False
    warmup_epochs: int = 5

    def train_config(self, seed: int):
        from specblend.trainer import TrainConfig
        return TrainConfig(batch_size=self.batch_size,
                           max_epochs=self.max_epochs,
                           early_stop_patience=self.max_epochs + 1,
                           lr_init=self.lr_init, warmup_epochs=self.warmup_epochs,
                           seed=seed)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sd_fold_long",
            why="one subject-dependent fold trained past the blend "
                "warm-up, so the network, trainer and blending show",
            n_subjects=2, trials_per_class_per_session=50,
            kind="subject_dependent", k=5,
            batch_size=32, max_epochs=4, lr_init=1e-3,
            min_auc=0.85,
            need_post_warmup=True, warmup_epochs=2),
        Workload(
            name="loso_fold",
            why="one leave-one-subject-out fold at batch 100: large GEMMs, "
                "the im2col working set, O(n^2) mining, an unseen subject",
            n_subjects=3, trials_per_class_per_session=25,
            kind="subject_independent", k=5,
            batch_size=100, max_epochs=3, lr_init=3e-3,
            # Six steps on two other subjects.  After four, the unseen
            # subject's AUC fell to 0.60 on seed 706; six steps lifted it
            # and four of the five next weakest of about 70 seeds to
            # 0.88-1.0.  Chance is 0.5 with a standard deviation of about
            # 0.06 on 100 trials.
            min_auc=0.7),
    )
}
