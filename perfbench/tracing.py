"""In-memory span tracing of the patchqa layers, installed from outside.

``Tracer.install`` replaces each function in ``TARGETS`` with a timing
wrapper at every place a caller looks it up: the home module, every other
patchqa module that imported the name (``from .embed import prepare`` in
``cli``, ``from .diffsum import summarize`` in ``pairing``) and, for methods,
the class. Module globals are patched in place, so calls such as
``train -> batch_loss_and_gradients`` inside ``qa_model`` are seen too.
``uninstall`` restores every binding.

Each span records (module, function, parent index, start, end). A span's
self time is its length minus the time its children cover; children never
overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time

MODULES = ("cli", "pipeline", "corpus", "diffsum", "embed", "pairing", "qa_model", "metrics")

TARGETS = (
    ("cli", "main"),
    ("pipeline", "load_deduped"),
    ("pipeline", "dataset_summary"),
    ("pipeline", "run_crossval"),
    ("pipeline", "run_train"),
    ("pipeline", "vectorize_examples"),
    ("pipeline", "score_examples"),
    ("pipeline", "write_crossval_outputs"),
    ("pipeline", "write_json"),
    ("pipeline", "write_scores_csv"),
    ("corpus", "load_dataset"),
    ("corpus", "dedup_patches"),
    ("diffsum", "describe_diff"),
    ("diffsum", "parse_unified_diff"),
    ("diffsum", "summarize"),
    ("embed", "tokenize"),
    ("embed", "prepare"),
    ("pairing", "build_examples"),
    ("pairing", "resolve_description"),
    ("pairing", "make_fold_plan"),
    ("qa_model", "train"),
    ("qa_model", "batch_loss_and_gradients"),
    ("qa_model", "Adam.step"),
    ("qa_model", "score_many"),
    ("qa_model", "score"),
    ("qa_model", "predict"),
    ("qa_model", "load_model"),
    ("qa_model", "save_model"),
    ("metrics", "threshold_sweep"),
    ("metrics", "confusion_at"),
    ("metrics", "auc"),
)

# Call sites that a wrap of the home module alone would miss; install()
# counts each one it finds bound to something it did not wrap.
REQUIRED_SITES = (
    ("pairing", "parse_unified_diff"),
    ("pairing", "summarize"),
    ("cli", "prepare"),
    ("cli", "tokenize"),
    ("qa_model", "batch_loss_and_gradients"),
)

# Span totals reported per cycle: metric name -> (module, function).
SPAN_TOTALS = {
    "qa_model.loss_and_grad_s": ("qa_model", "batch_loss_and_gradients"),
    "qa_model.adam_step_s": ("qa_model", "Adam.step"),
    "qa_model.train_s": ("qa_model", "train"),
    "qa_model.score_many_s": ("qa_model", "score_many"),
    "qa_model.predict_s": ("qa_model", "predict"),
    "qa_model.load_model_s": ("qa_model", "load_model"),
    "qa_model.save_model_s": ("qa_model", "save_model"),
    "embed.prepare_s": ("embed", "prepare"),
    "embed.tokenize_s": ("embed", "tokenize"),
    "corpus.load_dataset_s": ("corpus", "load_dataset"),
    "corpus.dedup_patches_s": ("corpus", "dedup_patches"),
    "diffsum.parse_s": ("diffsum", "parse_unified_diff"),
    "diffsum.summarize_s": ("diffsum", "summarize"),
    "pairing.build_examples_s": ("pairing", "build_examples"),
}

# Outermost spans of these count towards pipeline.write_s (checkpoints,
# report and score files).
WRITE_SPANS = {("pipeline", "write_crossval_outputs"), ("pipeline", "write_json"),
               ("pipeline", "write_scores_csv")}

COUNTERS = (
    "qa_model.loss_and_grad_calls", "qa_model.example_epochs", "qa_model.adam_steps",
    "qa_model.scored", "qa_model.predictions", "corpus.duplicates_removed",
    "diffsum.generated", "pairing.examples", "pairing.descriptions_resolved",
    "pairing.descriptions_generated",
    "embed.prepare_calls", "embed.tokens", "embed.truncated",
    "embed.bug_real", "embed.bug_positions", "embed.desc_real", "embed.desc_positions",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_sides(counts, examples) -> None:
    for ex in examples:
        counts["embed.bug_real"] += float(ex.bug.mask.sum())
        counts["embed.bug_positions"] += ex.bug.mask.shape[0]
        counts["embed.desc_real"] += float(ex.description.mask.sum())
        counts["embed.desc_positions"] += ex.description.mask.shape[0]


def _count(counts, key, args, kwargs, result) -> None:
    """Per-call counters, read from the arguments and result of the call."""
    if key == ("qa_model", "batch_loss_and_gradients"):
        counts["qa_model.loss_and_grad_calls"] += 1
        counts["qa_model.example_epochs"] += len(_arg(args, kwargs, 5, "labels"))
    elif key == ("qa_model", "Adam.step"):
        counts["qa_model.adam_steps"] += 1
    elif key == ("qa_model", "score_many"):
        counts["qa_model.scored"] += len(_arg(args, kwargs, 1, "examples"))
    elif key == ("qa_model", "predict"):
        counts["qa_model.predictions"] += 1
        _count_sides(counts, [_arg(args, kwargs, 1, "example")])
    elif key == ("pipeline", "vectorize_examples"):
        _count_sides(counts, result)
    elif key == ("corpus", "dedup_patches"):
        counts["corpus.duplicates_removed"] += (len(_arg(args, kwargs, 0, "ds").patches)
                                                - len(result.patches))
    elif key == ("diffsum", "summarize"):
        counts["diffsum.generated"] += 1
    elif key == ("pairing", "build_examples"):
        counts["pairing.examples"] += len(result)
    elif key == ("pairing", "resolve_description"):
        counts["pairing.descriptions_resolved"] += 1
        dataset, patch = _arg(args, kwargs, 0, "dataset"), _arg(args, kwargs, 1, "patch")
        counts["pairing.descriptions_generated"] += patch.patch_id not in dataset.descriptions
    elif key == ("embed", "prepare"):
        counts["embed.prepare_calls"] += 1
        counts["embed.tokens"] += len(_arg(args, kwargs, 0, "seq").tokens)
        counts["embed.truncated"] += bool(result.truncated)


class Tracer:
    """Spans and counters of one traced cycle."""

    def __init__(self):
        self.spans: list[list] = []  # [module, function, parent, start, end]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.count_errors = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.missing: list[str] = []

    def _wrapper(self, key, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        module, name = key
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([module, name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][4] = clock()
            try:
                _count(counts, key, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                self.count_errors += 1
            return result

        return traced

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "patchqa" or n.startswith("patchqa."))]
        for module_name, qualname in TARGETS:
            home = sys.modules.get(f"patchqa.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrapper((module_name, qualname), original)
            if owner_name:
                self._bind(owner, attr, original, wrapper)
                continue
            for module in package:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, name, original, wrapper)
        for module_name, name in REQUIRED_SITES:
            value = getattr(sys.modules.get(f"patchqa.{module_name}"), name, None)
            if value is not None and not hasattr(value, "__wrapped__"):
                self.missing.append(f"{module_name}.{name} (call site)")

    def _bind(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of this cycle."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for module, name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_by_module = dict.fromkeys(MODULES, 0.0)
        totals = dict.fromkeys(SPAN_TOTALS, 0.0)
        by_key = {v: k for k, v in SPAN_TOTALS.items()}
        root_s = write_s = 0.0
        for i, (module, name, parent, start, end) in enumerate(spans):
            length = end - start
            self_by_module[module] += length - child_time[i]
            metric = by_key.get((module, name))
            if metric is not None:
                totals[metric] += length
            if parent < 0:
                root_s += length
            if (module, name) in WRITE_SPANS and (
                    parent < 0 or tuple(spans[parent][:2]) not in WRITE_SPANS):
                write_s += length
        c = self.counts
        out = {f"{m}.self_s": v for m, v in self_by_module.items()}
        out.update(totals)
        out["pipeline.write_s"] = write_s
        out["metrics.s"] = sum(end - start for module, _, parent, start, end in spans
                               if module == "metrics" and (
                                   parent < 0 or spans[parent][0] != "metrics"))
        out["trace.root_s"] = root_s
        out["trace.spans"] = len(spans)
        out["trace.count_errors"] = self.count_errors
        out["trace.unwrapped"] = len(self.missing)
        out.update({k: v for k, v in c.items() if not k.startswith("embed.bug_")
                    and not k.startswith("embed.desc_")})
        out["embed.real_token_ratio_bug"] = _ratio(c["embed.bug_real"], c["embed.bug_positions"])
        out["embed.real_token_ratio_description"] = _ratio(c["embed.desc_real"],
                                                           c["embed.desc_positions"])
        out["embed.truncated_share"] = _ratio(c["embed.truncated"], c["embed.prepare_calls"])
        out["pairing.generated_share"] = _ratio(c["pairing.descriptions_generated"],
                                                c["pairing.descriptions_resolved"])
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def write_spans(cycles: list[list], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["module", "function", "parent", "start", "end"],
                   "cycles": cycles}, fh)
