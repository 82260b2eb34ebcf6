"""Run one ``ktfm`` command in this process with spans around each module.

Usage: ``python3 perfbench/trace_cli.py SPANS.json -- <ktfm arguments>``

The wrappers sit on the names callers look up (``ktfm.cli.load_dataset``,
``ktfm.evaluation.encode_dataset``, ``DesignMatrix.subset`` ...), never inside
the modules' own code. Spans (name, start, end, parent, attributes; times are
this process's CPU time) stay in memory and are written to SPANS.json when
the command ends; the exit code is the command's.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time


class Tracer:
    """Spans of one process, kept in memory until the command ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict) -> dict:
        span = {
            "name": name,
            "start": time.process_time(),
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.process_time()
        # growth of the process's peak RSS while the span was open
        span["rss_growth_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - span.pop("rss_kb")
        self._stack.pop()

    def wrap(self, name: str, fn, attrs=lambda args, kwargs: {}):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, attrs(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper


def _rows(args, kwargs):
    return {"rows": len(args[0])}


def _train_attrs(config_pos: int):
    def attrs(args, kwargs):
        config = args[config_pos] if len(args) > config_pos else kwargs["config"]
        return {"rows": len(args[0]), "epochs": config.epochs, "width": args[0].space.width, "d": config.d}

    return attrs


def install(tracer: Tracer) -> None:
    """Wrap every public entry point the CLI and the cv runner call."""
    from functools import cached_property

    import ktfm.cli as cli
    import ktfm.evaluation as evaluation
    from ktfm.datasets import Vocabulary
    from ktfm.sparse import DesignMatrix

    for attr in ("load_dataset", "load_triplets", "load_qmatrix", "align_qmatrix"):
        setattr(cli, attr, tracer.wrap(f"datasets.{attr}", getattr(cli, attr)))
    Vocabulary.load = classmethod(tracer.wrap("datasets.vocab_load", Vocabulary.load.__func__))
    for module in (cli, evaluation):
        module.encode_dataset = tracer.wrap("encoding.encode", module.encode_dataset, _rows)
        module.train_map_logit = tracer.wrap("training.sgd", module.train_map_logit, _train_attrs(1))
        module.train_gibbs_probit = tracer.wrap("training.gibbs", module.train_gibbs_probit, _train_attrs(2))
    DesignMatrix.subset = tracer.wrap("sparse.subset", DesignMatrix.subset)
    DesignMatrix.save = tracer.wrap("sparse.dump", DesignMatrix.save)
    csr = cached_property(tracer.wrap("sparse.csr", DesignMatrix.csr.func))
    csr.__set_name__(DesignMatrix, "csr")
    DesignMatrix.csr = csr
    cli.predict_proba_matrix = tracer.wrap("model.score", cli.predict_proba_matrix)
    evaluation.raw_scores = tracer.wrap("model.score", evaluation.raw_scores)
    evaluation.make_folds = tracer.wrap("evaluation.folds", evaluation.make_folds)
    evaluation.evaluate_predictions = tracer.wrap("evaluation.metrics", evaluation.evaluate_predictions)
    cli.evaluate_predictions = tracer.wrap("evaluation.metrics", cli.evaluate_predictions)
    for attr in ("write_fold_report", "write_summary", "format_table"):
        setattr(cli, attr, tracer.wrap("evaluation.report", getattr(cli, attr)))
    for attr in ("save_model", "load_model"):
        setattr(cli, attr, tracer.wrap("persistence.model_io", getattr(cli, attr)))
    cli.write_manifest = tracer.wrap("persistence.manifest", cli.write_manifest)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, args = argv[0], argv[2:]
    tracer = Tracer()
    span = tracer.open("cli.import", {})
    import click
    import ktfm.cli

    tracer.close(span)
    install(tracer)
    span = tracer.open("cli.command", {"command": args[0]})
    code = 0
    try:
        ktfm.cli.main.main(args, prog_name="ktfm", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    finally:
        tracer.close(span)
        with open(out, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
