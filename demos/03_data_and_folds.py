"""Synthetic data geometry and stratified cross-validation splits.

The generator places classes 1 and 2 close together (their separation is
scaled by the overlap factor) and class 0 off to the side, so the binary
"class 0 vs. rest" task stays easy while the fine task gets hard. The
splitter keeps every per-class count within one sample of exact
proportionality, in every split of every fold.
"""

import numpy as np

from curricula.data import SynthConfig, class_means, generate_synthetic, stratified_kfold

config = SynthConfig(counts=(349, 653, 707), feature_dim=2, overlap=0.25)
dataset = generate_synthetic(config, seed=11)
print(f"dataset: {len(dataset)} samples, class counts {dataset.class_counts()}")

means = class_means(config)
print(f"blob means:\n{means}")
print(
    f"distance(1, 2) = {np.linalg.norm(means[1] - means[2]):.2f}   "
    f"distance(0, midpoint of 1/2) = {np.linalg.norm(means[0]):.2f}"
)

print("\nPer-class counts for each 5-fold partition (train / val / test):")
partitions = stratified_kfold(dataset, k=5, val_fraction=0.2, seed=3)
for part in partitions:
    row = [f"fold {part.fold_index}:"]
    for ids, tag in ((part.train_ids, "train"), (part.val_ids, "val"), (part.test_ids, "test")):
        sub = dataset.subset(ids)
        row.append(f"{tag} {sub.class_counts()}")
    print("  " + "   ".join(row))

tested = np.sort(np.concatenate([p.test_ids for p in partitions]))
print(f"\nevery sample tested exactly once: {np.array_equal(tested, np.sort(dataset.ids))}")
