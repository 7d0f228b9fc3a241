"""Command line: `pase pretrain | extract | contaminate | probe`.

Config files carry the hyperparameters; flags only pick files and seeds.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .config import default_config_text, load_train_config
from .trainer import contaminate_corpus, extract, pretrain, probe


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pase",
        description="Self-supervised speech encoder: pretraining, feature "
        "extraction, offline contamination, and linear probing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run self-supervised pretraining")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("extract", help="write frozen embeddings as PFEA files")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("contaminate", help="distort a corpus offline")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("probe", help="linear speaker probe on frozen features")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="path of the JSON report")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("init-config", help="print a default config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)

    if args.command == "init-config":
        sys.stdout.write(default_config_text())
        return 0
    if args.command == "pretrain":
        cfg = load_train_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        path = pretrain(cfg)
        print(path)
        return 0
    if args.command == "extract":
        for path in extract(args.ckpt, args.manifest, args.out):
            print(path)
        return 0
    if args.command == "contaminate":
        cfg = load_train_config(args.config)
        log_path = contaminate_corpus(cfg, args.manifest, args.out, args.seed)
        print(log_path)
        return 0
    if args.command == "probe":
        report = probe(args.ckpt, args.manifest, out_json=args.out, seed=args.seed)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
