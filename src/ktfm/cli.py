"""Command-line surface: encode, train, predict, evaluate, cv, synth, exports.

Every run derives all randomness from --seed, so identical invocations
reproduce identical files. encode, train, predict, cv and synth also write a
manifest next to their outputs (identical but for its timestamp); evaluate,
export-embeddings and import-assistments write none. A manifest is built from
the command's own parameters: each one that is not a path is an option, keyed
by its parameter name, and each existing-file path given a value is an input,
recorded by digest. Output paths and the hidden --lr are not recorded.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import click
from click.core import ParameterSource

from . import __version__
from .datasets import (
    SynthSpec,
    Vocabulary,
    align_qmatrix,
    convert_assistments,
    generate_synthetic,
    load_dataset,
    load_qmatrix,
    load_triplets,
    write_synthetic,
)
from .encoding import encode_dataset
from .evaluation import (
    FoldSpec,
    encode_preset,
    evaluate_predictions,
    fit,
    format_table,
    nll,
    run_cv,
    write_fold_report,
    write_summary,
)
from .model import Link, export_embeddings, predict_proba_matrix
from .persistence import ModelBundle, load_model, save_model, write_manifest
from .training import TrainConfig, TrainingDivergedError
from .training import train_gibbs_probit, train_map_logit  # noqa: F401  read only by perfbench/trace_cli.py

# every package error is a ValueError but TrainingDivergedError
_ERRORS = (ValueError, TrainingDivergedError, OSError)


def _write_predictions(path, probabilities) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("row,proba\n")
        for r, p in enumerate(probabilities):
            fh.write(f"{r},{float(p)!r}\n")


def _check_trainer_options(link: str) -> None:
    """An option that only the other trainer reads is an error, not a silent no-op: Gibbs
    sampling (``--link probit``) reads no ``--l2`` or ``--lr``, and the MAP fit (``--link logit``)
    no ``--burn-in``. The MAP fit has no step size either, so ``--lr`` is ignored with a note."""
    ctx = click.get_current_context()
    given = [name for name in ("lr", "l2", "burn_in")  # cv has no --burn-in: its source is None
             if ctx.get_parameter_source(name) not in (None, ParameterSource.DEFAULT)]
    if Link(link) is Link.PROBIT:
        foreign, owner, reader = ("lr", "l2"), "logit", "Gibbs sampling"
    else:
        foreign, owner, reader = ("burn_in",), "probit", "the MAP fit"
    wrong = [name for name in given if name in foreign]
    if wrong:
        flag = "--" + wrong[0].replace("_", "-")
        raise click.ClickException(f"{flag} applies only to --link {owner}; {reader} does not read it")
    if "lr" in given:
        click.echo("--lr is ignored: the MAP fit takes bound steps and has no step size", err=True)


def _check_output_dirs(*paths) -> None:
    """Fail before any loading or fitting when an output path (None if not
    asked for) lies in a directory that does not exist."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise OSError(f"cannot write {path}: its directory does not exist")


def _manifest(path) -> None:
    """Write the running command's manifest from its own parameters by the rule in the
    module docstring; a hidden parameter, such as ``--lr``, is not recorded."""
    ctx = click.get_current_context()
    options, inputs = {}, {}
    for param in ctx.command.params:
        if isinstance(param.type, click.Path):
            if param.type.exists:
                inputs[param.name] = ctx.params[param.name]
        elif not param.hidden:
            options[param.name] = ctx.params[param.name]
    write_manifest(path, ctx.command.name, options, inputs)  # unset inputs (None) are dropped there


class _Main(click.Group):
    """The one error boundary: a data, model or I/O error in any command
    becomes a one-line ``Error:`` message and a non-zero exit, and each
    warning one ``Warning:`` line on stderr."""

    def invoke(self, ctx):
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: click.echo(f"Warning: {message}", err=True)
            try:
                return super().invoke(ctx)
            except _ERRORS as exc:
                raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="ktfm")
def main():
    """Student performance prediction with sparse factorization machines."""


data_opt = click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
qmatrix_opt = click.option("--qmatrix", type=click.Path(exists=True, dir_okay=False))
vocab_opt = click.option("--vocab", type=click.Path(exists=True, dir_okay=False))
seed_opt = click.option("--seed", default=0, show_default=True)
preset_opt = click.option("--preset", default="irt", show_default=True)
d_opt = click.option("--d", default=0, show_default=True, help="Factor dimension.")
link_opt = click.option(
    "--link",
    type=click.Choice(["logit", "probit"]),
    default="logit",
    show_default=True,
    help="logit fits the MAP by coordinate descent, probit samples by Gibbs.",
)
epochs_opt = click.option(
    "--epochs", "--iters", "epochs", default=200, show_default=True, help="MAP sweeps at most; Gibbs iterations."
)
# --lr set the step of the per-row SGD that coordinate descent replaced; it is
# accepted and ignored, so that existing invocations keep running
lr_opt = click.option("--lr", type=float, hidden=True, help="Ignored: the MAP fit has no step size.")
l2_opt = click.option("--l2", default=1e-4, show_default=True, help="L2 penalty on w and V (logit only).")


@main.command()
@data_opt
@qmatrix_opt
@vocab_opt
@preset_opt
@d_opt
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--vocab-out", type=click.Path(dir_okay=False))
def encode(data, qmatrix, vocab, preset, d, out, vocab_out):
    """Encode a triplet log into a sparse design-matrix text file."""
    _check_output_dirs(out, vocab_out)
    dataset = load_dataset(data, qmatrix, vocab)
    _, dm = encode_preset(dataset, preset, d)
    dm.save(out)
    if vocab_out:
        dataset.vocab.save(vocab_out)
    _manifest(Path(out).with_suffix(".manifest.json"))
    click.echo(f"wrote {out} ({len(dm)} rows x {dm.space.width} features)")


@main.command()
@data_opt
@qmatrix_opt
@vocab_opt
@preset_opt
@d_opt
@link_opt
@epochs_opt
@lr_opt
@l2_opt
@click.option("--burn-in", type=int, default=None, help="Gibbs burn-in (default 20%).")
@seed_opt
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--vocab-out", type=click.Path(dir_okay=False))
@click.option("--log", "log_path", type=click.Path(dir_okay=False), help="Per-epoch metrics CSV.")
def train(data, qmatrix, vocab, preset, d, link, epochs, lr, l2, burn_in, seed, out, vocab_out, log_path):
    """Fit a model on a full log and save it as versioned JSON."""
    _check_trainer_options(link)
    _check_output_dirs(out, vocab_out, log_path)
    dataset = load_dataset(data, qmatrix, vocab)
    config, dm = encode_preset(dataset, preset, d)
    cfg = TrainConfig(d=d, epochs=epochs, l2=l2, seed=seed, burn_in=burn_in)
    fm_link = Link(link)
    log_rows = ["epoch,train_nll\n"]

    def log_sweep(sweep, scores, objective):  # the train NLL of the sweep's carried scores
        log_rows.append(f"{sweep},{nll(fm_link.inverse(scores), dm.labels)!r}\n")

    [(params, _)] = fit(dm, [cfg], fm_link, after_sweep=log_sweep if log_path else None)
    bundle = ModelBundle(
        params=params,
        space=dm.space,
        link=fm_link,
        encoding=config,
        vocab_digest=dataset.vocab.digest(),
        n_students=dataset.n_students,
        n_items=dataset.n_items,
    )
    save_model(out, bundle)
    if vocab_out:
        dataset.vocab.save(vocab_out)
    if log_path:
        Path(log_path).write_text("".join(log_rows), newline="\n")
    _manifest(Path(out).with_suffix(".manifest.json"))
    click.echo(f"wrote {out}")


def _score_with_model(model, data, qmatrix, vocab_path):
    """Probabilities and labels of a log under a saved model, after the
    model's vocabulary digest has been checked against ``vocab_path``."""
    vocab = Vocabulary.load(vocab_path)
    bundle = load_model(model, vocab.digest())
    triplets, extras, _ = load_triplets(data, vocab, allow_unknown=True)
    q = None
    if qmatrix:
        q = align_qmatrix(load_qmatrix(qmatrix), vocab.items, vocab_order=True)
    dm = encode_dataset(
        triplets,
        q,
        bundle.encoding,
        bundle.n_students,
        extras=extras,
        n_items=bundle.n_items,
    )
    if dm.space != bundle.space:  # users, items and extras are sized by the model: only the skills differ
        trained = next(w for name, w in bundle.space.blocks if name in ("skills", "wins", "fails", "attempts"))
        raise ValueError(f"{qmatrix}: the q-matrix has {q.n_skills} skills, the model was trained on {trained}")
    return predict_proba_matrix(bundle.params, dm, bundle.link), dm.labels


model_opt = click.option("--model", required=True, type=click.Path(exists=True, dir_okay=False))
vocab_req_opt = click.option("--vocab", required=True, type=click.Path(exists=True, dir_okay=False))


@main.command()
@model_opt
@data_opt
@qmatrix_opt
@vocab_req_opt
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def predict(model, data, qmatrix, vocab, out):
    """Score a triplet log with a saved model; one probability per row."""
    _check_output_dirs(out)
    probabilities, _ = _score_with_model(model, data, qmatrix, vocab)
    _write_predictions(out, probabilities)
    _manifest(Path(out).with_suffix(".manifest.json"))
    click.echo(f"wrote {out} ({len(probabilities)} predictions)")


@main.command()
@model_opt
@data_opt
@qmatrix_opt
@vocab_req_opt
@click.option("--out", type=click.Path(dir_okay=False))
def evaluate(model, data, qmatrix, vocab, out):
    """ACC/AUC/NLL of a saved model on a labeled triplet log."""
    _check_output_dirs(out)
    probabilities, labels = _score_with_model(model, data, qmatrix, vocab)
    metrics = evaluate_predictions(probabilities, labels, fold=0)
    auc_txt = "" if metrics.auc is None else repr(metrics.auc)
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write("acc,auc,nll\n")
            fh.write(f"{metrics.acc!r},{auc_txt},{metrics.nll!r}\n")
    click.echo(f"acc={metrics.acc:.4f} auc={auc_txt or 'n/a'} nll={metrics.nll:.4f}")


@main.command()
@data_opt
@qmatrix_opt
@vocab_opt
@click.option(
    "--preset",
    "presets",
    multiple=True,
    default=("irt",),
    show_default=True,
    help="Repeatable; grid cells pair each preset with each --d.",
)
@click.option("--d", "dims", multiple=True, type=int, default=(0,), show_default=True)
@link_opt
@epochs_opt
@lr_opt
@l2_opt
@click.option("--folds", default=5, show_default=True)
@click.option("--split", type=click.Choice(["row", "student"]), default="row", show_default=True)
@seed_opt
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def cv(data, qmatrix, vocab, presets, dims, link, epochs, lr, l2, folds, split, seed, out_dir):
    """Cross-validate a preset/dimension grid and write report CSVs."""
    _check_trainer_options(link)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(data, qmatrix, vocab)
    single = len(presets) * len(dims) == 1  # a lone cell raises its error rather than being skipped
    reports = run_cv(
        dataset,
        [(p, d) for p in presets for d in dims],
        FoldSpec(k=folds, seed=seed, mode=f"by_{split}"),
        TrainConfig(epochs=epochs, l2=l2, seed=seed),
        Link(link),
        skip=None if single else lambda p, d, exc: click.echo(f"skipping {p} at d={d}: {exc}", err=True),
    )
    with open(out / "report.csv", "w", newline="\n") as fh:
        write_fold_report(reports, fh)
    with open(out / "summary.csv", "w", newline="\n") as fh:
        write_summary(reports, fh)
    _manifest(out / "manifest.json")
    click.echo(format_table(reports))


@main.command("export-embeddings")
@model_opt
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def export_embeddings_cmd(model, out):
    """Dump per-feature biases and factor vectors as CSV."""
    _check_output_dirs(out)
    bundle = load_model(model)
    with open(out, "w", newline="\n") as fh:
        export_embeddings(bundle.params, bundle.space, fh)
    click.echo(f"wrote {out}")


@main.command()
@click.option(
    "--generator",
    type=click.Choice(["rasch", "mirt", "pfa", "ktm"]),
    default="rasch",
    show_default=True,
)
@click.option("--students", default=100, show_default=True)
@click.option("--items", default=20, show_default=True)
@click.option("--skills", default=0, show_default=True)
@click.option("--d", default=0, show_default=True)
@click.option("--attempts", default=1, show_default=True)
@click.option("--link", type=click.Choice(["logit", "probit"]), default="logit", show_default=True)
@click.option("--scale", default=1.0, show_default=True)
@seed_opt
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def synth(generator, students, items, skills, d, attempts, link, scale, seed, out_dir):
    """Generate a synthetic log with saved ground-truth parameters."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = SynthSpec(
        generator=generator,
        n_students=students,
        n_items=items,
        n_skills=skills,
        d=d,
        attempts=attempts,
        link=Link(link),
        seed=seed,
        scale=scale,
    )
    paths = write_synthetic(generate_synthetic(spec), out)
    _manifest(out / "manifest.json")
    click.echo("wrote " + ", ".join(sorted(paths.values())))


@main.command("import-assistments")
@click.option("--raw", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out-data", required=True, type=click.Path(dir_okay=False))
@click.option("--out-qmatrix", required=True, type=click.Path(dir_okay=False))
def import_assistments(raw, out_data, out_qmatrix):
    """Convert the public 2009-2010 skill-builder CSV to the triplet format."""
    _check_output_dirs(out_data, out_qmatrix)
    convert_assistments(raw, out_data, out_qmatrix)
    click.echo(f"wrote {out_data} and {out_qmatrix}")


if __name__ == "__main__":
    main()
