#!/usr/bin/env python3
"""End-to-end desk-scale demo: corpus -> pretrain -> extract -> probe.

Takes roughly 10-15 minutes on a laptop CPU. Everything lands under --out:

    corpus/     synthetic WAVs and manifests
    ckpt/       checkpoints and the loss CSV
    features/   PFEA embeddings of the probe utterances
    probe.json  linear speaker-probe report (pretrained vs random-init)
"""

import argparse
import json
import os
from pathlib import Path

from pase.config import load_train_config
from pase.toygen import make_toy_corpus
from pase.trainer import extract, pretrain, probe

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.conf"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0, help="corpus and probe seed")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    corpus = make_toy_corpus(os.path.join(args.out, "corpus"), seed=args.seed)
    print("corpus written")

    # the desk-scale recipe, training seed included; only the data and
    # checkpoint locations are set here
    cfg = load_train_config(str(DESK_CONFIG))
    cfg.clean_manifest = corpus["train"]
    cfg.noise_manifest = corpus["noise"]
    cfg.checkpoint_dir = os.path.join(args.out, "ckpt")
    final = pretrain(cfg)
    print(f"pretrained checkpoint: {final}")

    feature_dir = os.path.join(args.out, "features")
    extract(final, corpus["probe"], feature_dir)
    print(f"embeddings in {feature_dir}")

    trained = probe(
        final, corpus["probe"], out_json=os.path.join(args.out, "probe.json"), seed=args.seed
    )
    baseline = probe(
        os.path.join(args.out, "ckpt", "init.pckp"), corpus["probe"], seed=args.seed
    )
    print(
        json.dumps(
            {
                "pretrained_test_accuracy": trained["test_accuracy"],
                "random_init_test_accuracy": baseline["test_accuracy"],
                "chance": 1.0 / len(trained["classes"]),
            },
            indent=2,
        )
    )


if __name__ == "__main__":
    main()
