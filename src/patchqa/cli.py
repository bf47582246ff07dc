"""Command-line interface wiring the whole pipeline.

Subcommands: ingest | crossval | train | predict | evaluate | hypothesis.
Options may also come from a JSON config file (--config); explicit flags win.
All randomness flows from the three named seeds (--model-seed, --fold-seed,
--pair-seed), so equal inputs produce byte-identical outputs. Exit code is 0
iff no stage errored.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import pipeline, qa_model
from .corpus import DatasetError
from .diffsum import describe_diff
from .pipeline import EmbeddingSpec, PipelineError, RunConfig


def _add_embedding_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--embeddings", help="path to a token vector file")
    sp.add_argument("--hash-seed", type=int,
                    help="seed for hashed token vectors (default 0)")
    sp.add_argument("--hash-dim", type=int,
                    help="dimension of hashed token vectors (default 32)")


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--epochs", type=int, help="training epochs (default 10)")
    sp.add_argument("--lr", type=float, help="learning rate (default 0.01)")
    sp.add_argument("--hidden", type=int, help="hidden size per direction (default 16)")
    sp.add_argument("--max-len", type=int, help="max sequence length (default 64)")
    sp.add_argument("--batch", type=int, help="batch size (default 128)")
    sp.add_argument("--model-seed", type=int, help="model init/shuffle seed (default 0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="patchqa",
        description="Predict patch correctness by matching bug reports to "
                    "patch descriptions.",
    )
    parser.add_argument("--config", help="JSON file with default option values; "
                                         "explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="load a dataset, deduplicate, print counts")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", help="also write the summary JSON here")
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("crossval", help="grouped k-fold cross-validation")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--k", type=int, help="number of groups (default 10)")
    sp.add_argument("--fold-seed", type=int, help="fold assignment seed (default 0)")
    sp.add_argument("--pair-seed", type=int, help="mismatch pairing seed (default 0)")
    sp.add_argument("--threshold", type=float,
                    help="operating threshold for per-fold metrics (default 0.5)")
    sp.add_argument("--thresholds",
                    help="comma-separated sweep thresholds (default 0.1..0.9)")
    _add_embedding_flags(sp)
    _add_model_flags(sp)
    sp.set_defaults(func=cmd_crossval)

    sp = sub.add_parser("train", help="train one model on every labeled example")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--model-out", required=True, help="checkpoint path to write")
    sp.add_argument("--pair-seed", type=int)
    _add_embedding_flags(sp)
    _add_model_flags(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("predict", help="score one bug/patch pair with a checkpoint")
    sp.add_argument("--model", required=True, help="model checkpoint path")
    sp.add_argument("--bug-text", help="bug report text (title and body)")
    sp.add_argument("--bug-file", help="file holding the bug report text")
    sp.add_argument("--description", help="patch description text")
    sp.add_argument("--diff-file", help="unified diff file; summarized when no "
                                        "description is given")
    sp.add_argument("--threshold", type=float,
                    help="decision threshold (default 0.5)")
    _add_embedding_flags(sp)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("evaluate", help="score a dataset with a checkpoint and "
                                         "write a metrics report")
    sp.add_argument("--model", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--pair-seed", type=int)
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--thresholds")
    _add_embedding_flags(sp)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("hypothesis", help="matched vs random pair distance study")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--pair-seed", type=int, help="random re-pairing seed (default 0)")
    sp.add_argument("--out", help="also write the study JSON here")
    _add_embedding_flags(sp)
    sp.set_defaults(func=cmd_hypothesis)

    return parser


def _option(args, name: str, default):
    """Flag value if given, else the config-file value, else the default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return getattr(args, "_config_values", {}).get(name, default)


def _embedding_spec(args, saved=None) -> EmbeddingSpec:
    """Each field from its flag, else the config file, else ``saved`` (the
    embedding object a checkpoint records, if any), else the default."""
    base = EmbeddingSpec() if saved is None else EmbeddingSpec.from_dict(saved)
    return EmbeddingSpec(path=_option(args, "embeddings", None) or base.path,
                         dim=_option(args, "hash_dim", base.dim),
                         seed=_option(args, "hash_seed", base.seed))


def _model_config(args) -> qa_model.ModelConfig:
    return qa_model.ModelConfig(
        max_seq_len=_option(args, "max_len", 64),
        hidden_size=_option(args, "hidden", 16),
        learning_rate=_option(args, "lr", 0.01),
        epochs=_option(args, "epochs", 10),
        batch_size=_option(args, "batch", 128),
        seed=_option(args, "model_seed", 0),
    )


def _sweep_thresholds(args) -> tuple[float, ...]:
    raw = _option(args, "thresholds", None)
    if raw is None:
        return pipeline.DEFAULT_SWEEP
    if isinstance(raw, (list, tuple)):
        return tuple(float(t) for t in raw)
    return tuple(float(t) for t in str(raw).split(",") if t.strip())


def _run_config(args) -> RunConfig:
    return RunConfig(
        dataset=args.dataset,
        embedding=_embedding_spec(args),
        model=_model_config(args),
        k=_option(args, "k", 10),
        fold_seed=_option(args, "fold_seed", 0),
        pair_seed=_option(args, "pair_seed", 0),
        threshold=_option(args, "threshold", 0.5),
        thresholds=_sweep_thresholds(args),
    )


def _emit(obj, out=None) -> None:
    """Print ``obj`` as JSON; also write it to the file ``out`` if given."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    print(text)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")


def cmd_ingest(args) -> int:
    ds, removed = pipeline.load_deduped(args.dataset)
    _emit(pipeline.dataset_summary(ds, removed), args.out)
    return 0


def cmd_crossval(args) -> int:
    config = _run_config(args)

    def progress(fold, k):
        print(f"fold {fold + 1}/{k}", file=sys.stderr)

    result = pipeline.run_crossval(config, progress=progress)
    pipeline.write_crossval_outputs(result, args.out)
    _emit({"mean": result.report["mean"], "statistics": result.report["statistics"]})
    return 0


def cmd_train(args) -> int:
    config = _run_config(args)
    model, info = pipeline.run_train(config)
    qa_model.save_model(model, args.model_out)
    _emit({"examples": info["examples"], "positives": info["positives"],
           "final_loss": info["loss_history"][-1]})
    return 0


def _predict_provider(args, model: qa_model.QaModel):
    provider = _embedding_spec(args, model.metadata.get("embedding")).build()
    if provider.dim != model.input_dim:
        raise ValueError(
            f"embedding dim {provider.dim} does not match model input dim "
            f"{model.input_dim}"
        )
    return provider


def cmd_predict(args) -> int:
    model = qa_model.load_model(args.model)
    provider = _predict_provider(args, model)
    if args.bug_text is not None:
        bug_text = args.bug_text
    elif args.bug_file:
        bug_text = Path(args.bug_file).read_text(encoding="utf-8")
    else:
        raise ValueError("predict needs --bug-text or --bug-file")
    if args.description is not None:
        description = args.description
    elif args.diff_file:
        description = describe_diff(Path(args.diff_file).read_text(encoding="utf-8"))
    else:
        raise ValueError("predict needs --description or --diff-file")
    threshold = _option(args, "threshold", 0.5)
    example = pipeline.vectorize(bug_text, description, 0, provider,
                                 model.config.max_seq_len)
    result = qa_model.predict(model, example, provider.table, threshold)
    _emit({"score": result.score, "label": result.label,
           "verdict": "correct" if result.label == 1 else "incorrect",
           "threshold": threshold})
    return 0


def cmd_evaluate(args) -> int:
    model = qa_model.load_model(args.model)
    provider = _predict_provider(args, model)
    report, rows = pipeline.run_evaluate(_run_config(args), model, provider, args.model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_json(report, out / "report.json")
    pipeline.write_scores_csv(rows, out / "scores.csv")
    _emit(report["at_threshold"])
    return 0


def cmd_hypothesis(args) -> int:
    ds, _ = pipeline.load_deduped(args.dataset)
    spec = _embedding_spec(args)
    provider = spec.build()
    report = pipeline.run_hypothesis(ds, provider, _option(args, "pair_seed", 0))
    report["embedding"] = spec.describe()
    _emit(report, args.out)
    return 0


@functools.cache
def _option_types() -> dict[str, dict]:
    """The argparse type of each option, by subcommand and option name."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest: a.type for a in sp._actions
                   if not isinstance(a, argparse._HelpAction)}
            for name, sp in commands.choices.items()}


# Options read only from their flags: a config value for one would be ignored.
_FLAG_ONLY = {"dataset", "out", "model", "model_out", "bug_text", "bug_file",
              "description", "diff_file"}

# JSON types a config value may take, by the argparse type of its option.
_CONFIG_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
                 None: (str, "a string")}


def _one_key_per_option(pairs) -> dict:
    """A JSON object as a dict. Keys fold ``-`` into ``_``, so two keys that
    name one option (``hash-dim`` and ``hash_dim``, or one key twice) are an
    error rather than the last one silently winning."""
    keys = {}
    for key, _ in pairs:
        name = key.replace("-", "_")
        if name in keys:
            raise ValueError(f"config: {keys[name]!r} and {key!r} name the same option")
        keys[name] = key
    return dict(pairs)


def _config_values(path, command: str) -> dict:
    """Config-file values keyed by option name. Every key must name an option
    of some subcommand, so one file may serve several, and none may name an
    input or output path or text (``_FLAG_ONLY``). A value for an option
    of ``command`` must have that option's type; JSON true is no number, and
    ``thresholds`` may also be a list of numbers."""
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"),
                            object_pairs_hook=_one_key_per_option)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"config: {exc}") from None
    if not isinstance(values, dict):
        raise ValueError("config: expected a JSON object")
    out = {key.replace("-", "_"): value for key, value in values.items()}
    known = {dest for types in _option_types().values() for dest in types}
    option_types = _option_types()[command]
    for key in values:
        name = key.replace("-", "_")
        if name not in known:
            raise ValueError(f"config: unknown option {key!r}")
        if name in _FLAG_ONLY:
            raise ValueError(f"config: {key!r} may only be given as a flag")
    for name, value in out.items():
        if name not in option_types:
            continue
        (accepted, expected), items = _CONFIG_TYPES[option_types[name]], [value]
        if name == "thresholds" and isinstance(value, list):
            accepted, expected, items = (int, float), "a list of numbers", value
        if any(isinstance(v, bool) or not isinstance(v, accepted) for v in items):
            raise ValueError(f"config: {name} must be {expected}, not {json.dumps(value)}")
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args._config_values = _config_values(args.config, args.command)
        return args.func(args)
    except (DatasetError, PipelineError, qa_model.TrainingError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
