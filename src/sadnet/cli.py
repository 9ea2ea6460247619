"""Command-line surface.

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 numeric failure (including gradient-check failures).
"""

from __future__ import annotations

import argparse
import sys

from .data import generate_noisy_corpus
from .errors import ConfigurationError, DataError, NumericError, UsageError
from .gradcheck import run_suite
from .model import count_params_flops, export_offsets
from .training import (denoise_image, evaluate, load_inference_model,
                       load_model_input, parse_train_config, train)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sadnet", description="Spatial-adaptive image denoiser")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--resume", default=None, help="checkpoint to resume from")

    d = sub.add_parser("denoise", help="denoise one image")
    d.add_argument("--ckpt", required=True)
    d.add_argument("--in", dest="input", required=True)
    d.add_argument("--out", dest="output", required=True)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--manifest", required=True)
    e.add_argument("--tsv", action="store_true", help="machine-readable output")

    g = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    g.add_argument("--scope", choices=["ops", "model"], default=None,
                   help="restrict to one suite (default: both)")

    i = sub.add_parser("inspect", help="print architecture, params and FLOPs")
    i.add_argument("--config", default=None,
                   help="training config file (default: stock model)")
    i.add_argument("--height", type=int, default=320)
    i.add_argument("--width", type=int, default=480)

    m = sub.add_parser("make-noisy", help="generate an AWGN corpus + manifest")
    m.add_argument("--in-dir", required=True)
    m.add_argument("--out-dir", required=True)
    m.add_argument("--sigma", type=float, required=True)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--manifest", default=None,
                   help="manifest output path (default: <out-dir>/manifest.tsv)")

    x = sub.add_parser("export-offsets", help="dump learned sampling positions")
    x.add_argument("--ckpt", required=True)
    x.add_argument("--in", dest="input", required=True)
    x.add_argument("--out", dest="output", required=True)
    x.add_argument("--points", type=int, default=4,
                   help="grid points per axis per scale")
    return p


def _cmd_train(args) -> int:
    config = parse_train_config(args.config)
    path, _ = train(config, resume_from=args.resume, log_stream=sys.stdout)
    print(f"final checkpoint: {path}", file=sys.stderr)
    return 0


def _cmd_inspect(args) -> int:
    if args.height < 1 or args.width < 1:
        raise UsageError(f"--height and --width must be positive, got "
                         f"{args.height}x{args.width}")
    if args.config is not None:
        cfg = parse_train_config(args.config).model
    else:
        from .model import ModelConfig
        cfg = ModelConfig()
    params, flops = count_params_flops(
        cfg, (1, cfg.in_channels, args.height, args.width))
    for key, value in cfg.to_dict().items():
        value = ",".join(map(str, value)) if isinstance(value, list) else value
        print(f"{key}\t{value}")
    print(f"head_tail_kernel\t1")
    print(f"input_shape\t1x{cfg.in_channels}x{args.height}x{args.width}")
    print(f"params\t{params}")
    print(f"flops\t{flops}")
    return 0


def _cmd_gradcheck(args) -> int:
    scope = args.scope or "all"
    results = run_suite(scope)
    failed = False
    for r in results:
        print(r.line())
        failed = failed or not r.passed
    print(f"{'FAIL' if failed else 'PASS'}: {sum(r.passed for r in results)}"
          f"/{len(results)} checks passed")
    return 3 if failed else 0


def _cmd_make_noisy(args) -> int:
    manifest = args.manifest or f"{args.out_dir.rstrip('/')}/manifest.tsv"
    entries = generate_noisy_corpus(args.in_dir, args.out_dir, args.sigma,
                                    args.seed, manifest)
    print(f"wrote {len(entries)} noisy images; manifest: {manifest}")
    return 0


def _cmd_export_offsets(args) -> int:
    model = load_inference_model(args.ckpt)
    rows = export_offsets(model, load_model_input(model, args.input),
                          args.output, args.points)
    print(f"wrote {rows} rows to {args.output}")
    return 0


# each command's input, named when it is too large for memory
_INPUTS = {"denoise": "input", "eval": "manifest", "export-offsets": "input",
           "make-noisy": "in_dir"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "denoise":
            denoise_image(args.ckpt, args.input, args.output)
            return 0
        if args.command == "eval":
            report = evaluate(args.ckpt, args.manifest)
            if not report.names:
                raise DataError(f"eval manifest {args.manifest} lists no images")
            sys.stdout.write(report.to_tsv() if args.tsv else report.to_table())
            return 0
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "make-noisy":
            return _cmd_make_noisy(args)
        if args.command == "export-offsets":
            return _cmd_export_offsets(args)
        raise UsageError(f"unknown command {args.command}")
    except (UsageError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a config can ask for more than there is (kernel_size 999, say), and
        # so can an image: a 12-MP one has 1.5 GB per full-size activation
        if getattr(args, "config", None) is not None:
            print(f"error: {args.config}: config needs more memory than is "
                  f"available: {exc}", file=sys.stderr)
            return 1
        if args.command not in _INPUTS:
            raise
        print(f"data error: {getattr(args, _INPUTS[args.command])}: input too "
              f"large for the available memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
