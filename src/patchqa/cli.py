"""Command-line interface wiring the whole pipeline.

Subcommands: ingest | crossval | train | predict | evaluate | hypothesis.
Options may also come from a JSON config file (--config); explicit flags win.
All randomness flows from the three named seeds (--model-seed, --fold-seed,
--pair-seed), so equal inputs produce byte-identical outputs. Exit code is 0
iff no stage errored.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import os
import sys
from pathlib import Path

from . import pipeline, qa_model
from .corpus import DatasetError
from .diffsum import describe_diff
from .pipeline import EmbeddingSpec, PipelineError, RunConfig


# Each option that sets a config field, declared once: flag -> (config class,
# field, help). The field's default sets the option's type (int or float, else
# a string) and, where it is not None, ends the help as "(default N)".
_SETTINGS = {
    "--embeddings": (EmbeddingSpec, "path", "path to a token vector file"),
    "--hash-seed": (EmbeddingSpec, "seed", "seed for hashed token vectors"),
    "--hash-dim": (EmbeddingSpec, "dim", "dimension of hashed token vectors"),
    "--epochs": (qa_model.ModelConfig, "epochs", "training epochs"),
    "--lr": (qa_model.ModelConfig, "learning_rate", "learning rate"),
    "--hidden": (qa_model.ModelConfig, "hidden_size", "hidden size per direction"),
    "--max-len": (qa_model.ModelConfig, "max_seq_len", "max sequence length"),
    "--batch": (qa_model.ModelConfig, "batch_size", "batch size"),
    "--model-seed": (qa_model.ModelConfig, "seed", "model init/shuffle seed"),
    "--k": (RunConfig, "k", "number of groups"),
    "--fold-seed": (RunConfig, "fold_seed", "fold assignment seed"),
    "--pair-seed": (RunConfig, "pair_seed", "mismatch pairing seed"),
    "--threshold": (RunConfig, "threshold", "operating threshold for per-fold metrics"),
    "--thresholds": (RunConfig, "thresholds", "comma-separated sweep thresholds"),
}
_EMBEDDING = ("--embeddings", "--hash-seed", "--hash-dim")
_MODEL = ("--epochs", "--lr", "--hidden", "--max-len", "--batch", "--model-seed")


def _add_settings(sp: argparse.ArgumentParser, *options) -> None:
    """Add options of ``_SETTINGS``, each a flag or a (flag, help) pair whose
    help this subcommand shows instead of the declared one (None: no help)."""
    for option in options:
        flag, text = option if isinstance(option, tuple) else (option, _SETTINGS[option][2])
        owner, name, _ = _SETTINGS[flag]
        default = getattr(owner, name)
        if text and default is not None:
            shown = f"{default[0]}..{default[-1]}" if isinstance(default, tuple) else default
            text += f" (default {shown})"
        sp.add_argument(flag, help=text,
                        type=type(default) if isinstance(default, (int, float)) else None)


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
    _add_settings(sp, "--k", "--fold-seed", "--pair-seed", "--threshold", "--thresholds",
                  *_EMBEDDING, *_MODEL)
    sp.set_defaults(func=cmd_crossval)

    sp = sub.add_parser("train", help="train one model on every labeled example")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--model-out", required=True, help="checkpoint path to write")
    _add_settings(sp, ("--pair-seed", None), *_EMBEDDING, *_MODEL)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("predict", help="score one bug/patch pair with a checkpoint")
    sp.add_argument("--model", required=True, help="model checkpoint path")
    sp.add_argument("--bug-text", help="bug report text (title and body)")
    sp.add_argument("--bug-file", help="file holding the bug report text")
    sp.add_argument("--description", help="patch description text")
    sp.add_argument("--diff-file", help="unified diff file; summarized when no "
                                        "description is given")
    _add_settings(sp, ("--threshold", "decision threshold"), *_EMBEDDING)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("evaluate", help="score a dataset with a checkpoint and "
                                         "write a metrics report")
    sp.add_argument("--model", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True, help="output directory")
    _add_settings(sp, ("--pair-seed", None), ("--threshold", None), ("--thresholds", None),
                  *_EMBEDDING)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("hypothesis", help="matched vs random pair distance study")
    sp.add_argument("--dataset", required=True)
    _add_settings(sp, ("--pair-seed", "random re-pairing seed"))
    sp.add_argument("--out", help="also write the study JSON here")
    _add_settings(sp, *_EMBEDDING)
    sp.set_defaults(func=cmd_hypothesis)

    return parser


def _thresholds(raw, source: str) -> tuple[float, ...]:
    """A sweep from a config-file list or a comma-separated string; a part
    that is no number is an error naming ``source``, the flag or config key."""
    parts = raw if isinstance(raw, list) else [t for t in raw.split(",") if t.strip()]
    sweep = []
    for part in parts:
        try:
            sweep.append(float(part))
        except ValueError:
            raise ValueError(f"{source}: {part.strip()!r} is not a number") from None
    return tuple(sweep)


def _given(args, cls) -> dict:
    """The fields of ``cls`` set by options of the running subcommand, each
    from its flag, else from the config file (``main`` filled those in)."""
    given = {}
    for flag, (owner, name, _) in _SETTINGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if owner is not cls or value is None:
            continue
        if name == "thresholds" and isinstance(value, str):
            value = _thresholds(value, flag)
        if value != "":  # an empty --embeddings counts as not given
            given[name] = value
    return given


def _embedding_spec(args, saved=None) -> EmbeddingSpec:
    """The given embedding options over ``saved`` (the embedding object a
    checkpoint records, if any), else over the defaults."""
    base = EmbeddingSpec() if saved is None else EmbeddingSpec.from_dict(saved)
    return dataclasses.replace(base, **_given(args, EmbeddingSpec))


def _run_config(args) -> RunConfig:
    return RunConfig(dataset=args.dataset, embedding=_embedding_spec(args),
                     model=qa_model.ModelConfig(**_given(args, qa_model.ModelConfig)),
                     **_given(args, RunConfig))


def _check_output(path, directory=False) -> None:
    """Raise now, before any work, the OSError that writing the output at
    ``path`` would raise after it: a directory made with its parents, or
    else a file in an existing directory."""
    path = Path(path)
    # A directory is made with its parents, so its nearest existing ancestor holds it.
    home = next(p for p in (path, *path.parents) if p.exists()) if directory else path.parent
    if path.exists() and path.is_dir() != directory:
        code = errno.EEXIST if directory else errno.EISDIR
    elif not home.is_dir():
        code = errno.ENOTDIR if home.exists() else errno.ENOENT
    elif not os.access(home, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def _emit(obj, out=None) -> None:
    """Print ``obj`` as JSON; also write it to the file ``out`` if given."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    print(text)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")


def cmd_ingest(args) -> int:
    if args.out:
        _check_output(args.out)
    ds, removed = pipeline.load_deduped(args.dataset)
    _emit(pipeline.dataset_summary(ds, removed), args.out)
    return 0


def cmd_crossval(args) -> int:
    config = _run_config(args)
    _check_output(args.out, directory=True)

    def progress(fold, k):
        print(f"fold {fold + 1}/{k}", file=sys.stderr)

    result = pipeline.run_crossval(config, progress=progress)
    pipeline.write_crossval_outputs(result, args.out)
    _emit({"mean": result.report["mean"], "statistics": result.report["statistics"]})
    return 0


def cmd_train(args) -> int:
    config = _run_config(args)
    _check_output(args.model_out)
    model, info = pipeline.run_train(config)
    qa_model.save_model(model, args.model_out)
    _emit({"examples": info["examples"], "positives": info["positives"],
           "final_loss": info["loss_history"][-1]})
    return 0


def _predict_provider(args, model: qa_model.QaModel):
    """The embedding spec ``model`` is read with, and the table it builds."""
    spec = _embedding_spec(args, model.metadata.get("embedding"))
    provider = spec.build()
    if provider.dim != model.input_dim:
        raise ValueError(
            f"embedding dim {provider.dim} does not match model input dim "
            f"{model.input_dim}"
        )
    return spec, provider


def cmd_predict(args) -> int:
    model = qa_model.load_model(args.model)
    _, provider = _predict_provider(args, model)
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
    threshold = _given(args, RunConfig).get("threshold", RunConfig.threshold)
    example = pipeline.vectorize(bug_text, description, 0, provider,
                                 model.config.max_seq_len)
    # A side without tokens scores 0.5, which the default threshold would
    # call correct.
    for side, ids in (("bug report", example.bug), ("description", example.description)):
        if not ids.ids.any():
            raise ValueError(f"predict: the {side} has no tokens")
    result = qa_model.predict(model, example, provider.table, threshold)
    _emit({"score": result.score, "label": result.label,
           "verdict": "correct" if result.label == 1 else "incorrect",
           "threshold": threshold})
    return 0


def cmd_evaluate(args) -> int:
    _check_output(args.out, directory=True)
    model = qa_model.load_model(args.model)
    spec, provider = _predict_provider(args, model)
    config = RunConfig(dataset=args.dataset, embedding=spec, **_given(args, RunConfig))
    report, rows = pipeline.run_evaluate(config, model, provider, args.model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_json(report, out / "report.json")
    pipeline.write_scores_csv(rows, out / "scores.csv")
    _emit(report["at_threshold"])
    return 0


def cmd_hypothesis(args) -> int:
    if args.out:
        _check_output(args.out)
    ds, _ = pipeline.load_deduped(args.dataset)
    spec = _embedding_spec(args)
    pair_seed = _given(args, RunConfig).get("pair_seed", RunConfig.pair_seed)
    report = pipeline.run_hypothesis(ds, spec.build(), pair_seed)
    report["embedding"] = spec.describe()
    _emit(report, args.out)
    return 0


# Options read only from their flags (an input or output path or text), so a
# config value for one is an error rather than a value never read.
_FLAG_ONLY = {"dataset", "out", "model", "model_out", "bug_text", "bug_file",
              "description", "diff_file"}

# JSON types a config value may take, by the type of its setting's default;
# any other default (None, a tuple) takes a string.
_CONFIG_TYPES = {int: (int, "an integer"), float: ((int, float), "a number")}


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


def _apply_config(args, path) -> None:
    """Fill in from the config file at ``path`` each setting of the running
    subcommand that no flag gave. Every key must name a setting, so one file
    may serve several subcommands; a subcommand drops the keys it has no
    option for. A value must have its setting's type; JSON true is no number,
    and ``thresholds`` may also be a list of numbers."""
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"),
                            object_pairs_hook=_one_key_per_option)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"config: {exc}") from None
    if not isinstance(values, dict):
        raise ValueError("config: expected a JSON object")
    for key, value in values.items():
        name = key.replace("-", "_")
        setting = _SETTINGS.get("--" + key.replace("_", "-"))
        if setting is None:
            raise ValueError(f"config: {key!r} may only be given as a flag"
                             if name in _FLAG_ONLY else f"config: unknown option {key!r}")
        if not hasattr(args, name):
            continue
        owner, attr, _ = setting
        accepted, expected = _CONFIG_TYPES.get(type(getattr(owner, attr)), (str, "a string"))
        items = [value]
        if name == "thresholds" and isinstance(value, list):
            accepted, expected, items = (int, float), "a list of numbers", value
        if any(isinstance(v, bool) or not isinstance(v, accepted) for v in items):
            raise ValueError(f"config: {name} must be {expected}, not {json.dumps(value)}")
        if getattr(args, name) is None:
            setattr(args, name, _thresholds(value, f"config: {name}")
                    if name == "thresholds" else value)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            _apply_config(args, args.config)
        return args.func(args)
    except (DatasetError, PipelineError, qa_model.TrainingError, ValueError,
            OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; Python's own has no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
