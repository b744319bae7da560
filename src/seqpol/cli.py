"""Command-line interface.

Subcommands:
  generate     sample a synthetic cohort (episodes.jsonl + oracle.csv)
  experiment   run the full protocol and render the report tables
  sweep-trees  tree-complexity sweep on split 0 (complexity.csv + .svg only)
  ope          inverse-probability product diagnostics for a saved model bundle,
               scored in blocks of consecutive patients, which load in id
               order (at most ``ope._BLOCK_ROWS`` rows a block, a longer
               patient alone), so that it holds one block's state matrix at a
               time besides the cohort and one product a row; it writes
               ope_curve.csv through ``report.write_table``, the writer of
               every report table, with LF line ends
  report       re-render tables, figures and model bundles from a saved
               report.json and the models/ files it lists; each bundle is
               read back as a record and refused as ``ope`` refuses it

Exit codes: 0 success, 1 configuration error, 2 data error; the module
docstring of ``seqpol.reader`` states which input faults are which.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .dataset import (
    apply_preprocessor,
    fit_preprocessor,
    load_episodes,
    save_episodes_jsonl,
)
from .errors import ConfigError, DataError, SeqpolError
from .models import model_from_dict
from .ope import _BLOCK_ROWS, inverse_probability_products, median_product_curve
from .reader import load, read, read_json, save
from .report import Bundle, load_report, write_table
from .runner import (
    ExperimentConfig,
    render_complexity,
    render_report,
    resolve_episodes,
    run_experiment,
    tree_sweep,
)
from .staterep import StateSpec
from .svg import line_chart
from .synthgen import GeneratorConfig, generate_cohort


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqpol",
        description="Interpretable behavior-policy modeling over decision logs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a synthetic cohort")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("experiment", help="run the full experimental protocol")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("sweep-trees", help="tree-complexity sweep on one split")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=500, help="models per state")
    p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser(
        "ope",
        help="inverse-probability product diagnostics",
        description="Median inverse-probability product by stage of a saved model "
        "bundle on a cohort. Patients load in id order and are scored in blocks of "
        f"consecutive patients of at most {_BLOCK_ROWS} rows (a longer patient alone), "
        "so memory holds one block's state matrix besides the cohort and one product "
        "a row. A product or median past float64's range (about 1.8e308) prints as inf.",
    )
    p.add_argument("--model", required=True, help="saved model bundle JSON")
    p.add_argument("--data", required=True, help="episodes (JSONL or CSV)")
    p.add_argument(
        "--spec", default=None, help="state spec JSON (default: the bundle's own)"
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--max-stage", type=int, default=10, help="last stage of the curve (>= 1)"
    )

    p = sub.add_parser("report", help="re-render a report directory")
    p.add_argument("--in", dest="indir", required=True, help="report directory")
    p.add_argument("--out", default=None, help="output directory (default: --in)")
    return parser


def _cmd_generate(args) -> int:
    gen = load(GeneratorConfig, args.config)
    if args.seed is not None:
        gen = dataclasses.replace(gen, seed=args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    episodes, oracle = generate_cohort(gen)
    save_episodes_jsonl(episodes, str(outdir / "episodes.jsonl"))
    oracle.to_csv(str(outdir / "oracle.csv"))
    save(episodes.schema, outdir / "schema.json", indent=2)
    save(gen, outdir / "generator.json", indent=2)
    print(
        f"generated {len(episodes)} patients, {episodes.n_stages} stages "
        f"-> {outdir}"
    )
    return 0


def _cmd_experiment(args) -> int:
    cfg = load(ExperimentConfig, args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    report = run_experiment(cfg)
    written = render_report(report, args.out)
    print(f"wrote {len(written)} files -> {args.out}")
    return 0


def _cmd_sweep_trees(args) -> int:
    cfg = load(ExperimentConfig, args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    cfg.tree_sweep_n = args.n
    written = render_complexity(tree_sweep(cfg, resolve_episodes(cfg)), args.out)
    print(f"wrote {len(written)} files -> {args.out}")
    return 0


def _cmd_ope(args) -> int:
    if args.max_stage < 1:  # before the cohort is loaded and scored
        raise ConfigError(f"--max-stage must be >= 1, got {args.max_stage}")
    bundle = read(Bundle, read_json(args.model, DataError), args.model)
    model, schema, spec = model_from_dict(bundle.model), bundle.schema, bundle.state_spec
    bundle.check_model(model, args.model)
    if args.spec is not None:
        given = load(StateSpec, args.spec)
        if given != spec:
            raise ConfigError(
                f"--spec {args.spec} is state {given.name!r}, but the model was "
                f"fitted on state {spec.name!r}"
            )
    episodes = load_episodes(args.data, schema)
    encoded = apply_preprocessor(episodes, bundle.preprocessor)
    products = inverse_probability_products(encoded, model, spec)
    curve = median_product_curve(products, args.max_stage)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_table(outdir / "ope_curve.csv", ["stage", "median", "n", "floored_events"],
                ["median"], curve.rows(), lineterminator="\n")
    line_chart(
        [("model", curve.stages, curve.medians)],
        str(outdir / "ope_curve.svg"),
        title="Median inverse-probability product by stage",
        x_label="stage",
        y_label="median product",
        log_y=True,
    )
    print(f"wrote ope_curve.csv and ope_curve.svg -> {outdir}")
    return 0


def _cmd_report(args) -> int:
    report = load_report(args.indir)
    outdir = args.out or args.indir
    written = render_report(report, outdir)
    print(f"wrote {len(written)} files -> {outdir}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "experiment": _cmd_experiment,
    "sweep-trees": _cmd_sweep_trees,
    "ope": _cmd_ope,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SeqpolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
