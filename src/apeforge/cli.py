"""Command-line surface of the toolkit.

Each subcommand parses its options and calls the library. Four rules live
here as well: `decode`'s --best-out line, `lm train`'s token sampling, `run`'s
workspace choice and `nmt train`'s choice between a checkpoint and a fresh
model. File formats are one whitespace-tokenized sentence per line, with
triplet corpora stored as PREFIX.src / PREFIX.mt / PREFIX.pe.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .corpus import (
    CorpusError,
    Vocab,
    mix as mix_corpora,
    read_mix_spec,
    read_parallel,
    read_sentences,
    read_text,
    read_triplets,
    wellformed_filter,
    write_sentences,
    write_triplets,
)
from .decoder import Ensemble, decode as beam_decode, reweight, write_nbest
from .metrics import bleu, corpus_ter, ter
from .ngram_lm import (
    corpus_cross_entropy,
    read_arpa,
    select_by_xent,
    train_lm,
    write_arpa,
)
from .nmt import DivergenceError, gradient_check, init_model, read_train_config, train
from .nmt import checkpoint as ckpt
from .pipeline import (
    NoiseSpec,
    parse_config as parse_pipeline,
    read_confusion,
    RoundtripError,
    roundtrip_generate,
    run as run_stages,
    synth_corrupt,
)
from .report import evaluate_systems, format_table, format_tsv
from .subword import apply_bpe, learn_bpe, load_model, revert_bpe, save_model
from .triplet_select import (
    SelectionConfig,
    knn_select,
    outlier_filter,
    report_stats,
)
from .tuner import TuneConfig, read_weights, tune, write_weights

class _Commands(click.Group):
    """Reports an input the toolkit cannot use (any CorpusError) or a file it
    cannot open (an OSError naming the file) as one `Error: <message>` line
    and exit status 1, instead of a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CorpusError as exc:
            raise click.ClickException(str(exc)) from exc
        except OSError as exc:
            if exc.filename is None:
                raise
            raise click.ClickException(f"{exc.filename}: {exc.strerror}") from exc


@click.group(cls=_Commands)
def cli():
    """Post-editing toolkit: data synthesis, filtering, toy attentional
    translation models, ensemble beam decoding and weight tuning."""


def main():
    cli(prog_name="apeforge")


class _FloatRange(click.FloatRange):
    """click.FloatRange that also rejects nan, which compares false with
    every bound and so passes the range test."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if math.isnan(number):
            self.fail(f"{value!r} is not a number.", param, ctx)
        return number


# ---------------------------------------------------------------- corpus


@cli.group()
def corpus():
    """Corpus hygiene and combination."""


@corpus.command("filter-wellformed")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def corpus_filter(in_path, out_path):
    """Keep only sentences passing the well-formedness rules."""
    sentences = read_sentences(in_path)
    kept = wellformed_filter(sentences)
    write_sentences(out_path, kept)
    click.echo(f"kept {len(kept)} of {len(sentences)} sentences")


@corpus.command("mix")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_prefix", required=True)
def corpus_mix(spec_path, out_prefix):
    """Concatenate triplet corpora with integer oversampling factors.

    The --spec file holds one `<corpus-prefix> <factor>` pair per line.
    """
    parts = read_mix_spec(spec_path)
    corpora = {prefix: read_triplets(prefix) for prefix, _ in parts}
    mixed = mix_corpora(parts, corpora)
    write_triplets(out_prefix, mixed)
    click.echo(f"wrote {len(mixed)} triplets to {out_prefix}.{{src,mt,pe}}")


# ------------------------------------------------------------------- bpe


@cli.group()
def bpe():
    """Subword segmentation models."""


@bpe.command("learn")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--merges", required=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", required=True, type=click.Path())
def bpe_learn(in_path, merges, out_path):
    model = learn_bpe(read_sentences(in_path), merges)
    save_model(model, out_path)
    click.echo(f"learned {len(model.merges)} merges")


@bpe.command("apply")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def bpe_apply(model_path, in_path, out_path):
    model = load_model(model_path)
    unknown = Counter()
    segmented = [apply_bpe(model, s, unknown) for s in read_sentences(in_path)]
    write_sentences(out_path, segmented)
    if unknown:
        total = sum(unknown.values())
        click.echo(f"warning: {total} characters outside the model inventory", err=True)


@bpe.command("revert")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def bpe_revert(in_path, out_path):
    write_sentences(out_path, [revert_bpe(s) for s in read_sentences(in_path)])


# ------------------------------------------------------------------ eval


@cli.command("eval")
@click.option("--metric", type=click.Choice(["ter", "bleu"]), required=True)
@click.option("--hyp", "hyp_path", required=True, type=click.Path(exists=True))
@click.option("--ref", "ref_path", required=True, type=click.Path(exists=True))
@click.option("--per-sentence", is_flag=True)
def eval_cmd(metric, hyp_path, ref_path, per_sentence):
    """Score a hypothesis file against a reference file.

    Corpus mode prints one number. Per-sentence mode (TER only) prints
    `index<TAB>score<TAB>ins,del,sub,shift` per line.
    """
    if per_sentence and metric != "ter":
        raise click.UsageError("--per-sentence requires --metric ter")
    hyps, refs = read_parallel(hyp_path, ref_path)
    if per_sentence:
        for i, (hyp, ref) in enumerate(zip(hyps, refs)):
            a = ter(hyp, ref)
            counts = f"{a.insertions},{a.deletions},{a.substitutions},{a.shifts}"
            click.echo(f"{i}\t{a.ter:.2f}\t{counts}")
        return
    if metric == "ter":
        score = corpus_ter(list(zip(hyps, refs)))
    else:
        score = bleu(hyps, refs)
    click.echo(f"{score:.2f}")


# -------------------------------------------------------------------- lm


@cli.group()
def lm():
    """Count-based language models with modified interpolated smoothing."""


@lm.command("train")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--order", default=3, show_default=True, type=click.IntRange(min=1))
@click.option(
    "--sample-tokens",
    type=click.IntRange(min=1),
    default=None,
    help="Subsample the corpus to about this many tokens before training, "
    "to equalize sizes between models.",
)
@click.option("--sample-seed", default=0, show_default=True, type=click.IntRange(min=0))
def lm_train(in_path, out_path, order, sample_tokens, sample_seed):
    sentences = read_sentences(in_path)
    if sample_tokens is not None:
        rng = np.random.default_rng(sample_seed)
        order_ix = rng.permutation(len(sentences))
        taken, total = [], 0
        for i in order_ix:
            if total >= sample_tokens:
                break
            taken.append(sentences[int(i)])
            total += len(sentences[int(i)])
        sentences = taken
    model = train_lm(sentences, order=order)
    write_arpa(model, out_path)
    tokens = sum(len(s) for s in sentences)
    click.echo(f"trained {order}-gram model on {len(sentences)} sentences ({tokens} tokens)")


@lm.command("xent")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
def lm_xent(model_path, in_path):
    """Per-token cross-entropy of the corpus under the model, in bits."""
    model = read_arpa(model_path)
    click.echo(f"{corpus_cross_entropy(model, read_sentences(in_path)):.4f}")


# ---------------------------------------------------------------- select


@cli.group()
def select():
    """Data selection: cross-entropy difference and statistics matching."""


def _parse_keep(ctx, param, value: str):
    """A line count >= 1, or a fraction in (0, 1] when the value has a '.'."""
    try:
        keep = float(value) if "." in value else int(value)
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a line count or a fraction") from None
    if isinstance(keep, float) and not 0.0 < keep <= 1.0:
        raise click.BadParameter(f"{value!r} is not a fraction in (0, 1]")
    if isinstance(keep, int) and keep < 1:
        raise click.BadParameter(f"{value!r} is not a line count >= 1")
    return keep


@select.command("xent")
@click.option("--in-domain", "in_lm_path", required=True, type=click.Path(exists=True))
@click.option("--out-domain", "out_lm_path", required=True, type=click.Path(exists=True))
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option(
    "--keep", required=True, callback=_parse_keep, help="Lines (>= 1), or a fraction in (0, 1]."
)
@click.option("--out", "out_path", type=click.Path(), default=None)
def select_xent(in_lm_path, out_lm_path, corpus_path, keep, out_path):
    """Keep the lines scored most in-domain by cross-entropy difference."""
    in_lm = read_arpa(in_lm_path)
    out_lm = read_arpa(out_lm_path)
    sentences = read_sentences(corpus_path)
    indices = select_by_xent(in_lm, out_lm, sentences, keep)
    selected = [sentences[i] for i in indices]
    if out_path is None:
        for s in selected:
            click.echo(" ".join(s))
    else:
        write_sentences(out_path, selected)
        click.echo(f"kept {len(selected)} of {len(sentences)} lines")


@select.command("ter")
@click.option("--pool", "pool_prefix", required=True)
@click.option("--reference", "ref_prefix", required=True)
@click.option("--n", "n", required=True, type=click.IntRange(min=1))
@click.option(
    "--outlier-margin", "margin", default=0.10, show_default=True,
    type=_FloatRange(min=0),
)
@click.option("--traversal-cap", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--out", "out_prefix", required=True)
@click.option("--report", "report_path", required=True, type=click.Path())
def select_ter(pool_prefix, ref_prefix, n, margin, traversal_cap, out_prefix, report_path):
    """Pick pool triplets whose edit statistics, z-scored against the
    reference set, lie nearest to those of its triplets."""
    if traversal_cap < n:
        raise click.BadParameter(
            f"{traversal_cap} is below --n {n}", param_hint="'--traversal-cap'"
        )
    cfg = SelectionConfig(n=n, traversal_cap=traversal_cap)
    pool = read_triplets(pool_prefix)
    reference = read_triplets(ref_prefix)
    filtered = outlier_filter(pool, reference, margin=margin)
    if not filtered:
        raise click.ClickException(
            f"{pool_prefix}: all {len(pool)} pool triplets fall outside the "
            f"reference ranges at --outlier-margin {margin}"
        )
    selected = knn_select(filtered, reference, cfg)
    write_triplets(out_prefix, selected)
    stats = report_stats(selected)
    Path(report_path).write_text("\n".join(stats.lines()) + "\n", encoding="utf-8")
    click.echo(
        f"selected {len(selected)} of {len(pool)} triplets "
        f"({len(pool) - len(filtered)} outliers dropped)"
    )


# ------------------------------------------------------------------- nmt


@cli.group()
def nmt():
    """Attentional encoder-decoder models."""


@nmt.command("train")
@click.option("--src", "src_path", required=True, type=click.Path(exists=True))
@click.option("--tgt", "tgt_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def nmt_train(src_path, tgt_path, config_path, out_dir):
    """Train on parallel line-aligned files; writes model.bin in --out.

    A fresh model takes its vocabularies from the files. With
    `fine_tune_from`, the checkpoint's model and vocabularies are trained
    on, and words it does not know become <unk>.
    """
    model_kw, cfg = read_train_config(config_path)
    src_corpus, tgt_corpus = read_parallel(src_path, tgt_path)
    if "fine_tune_from" in model_kw:
        model = ckpt.load(model_kw["fine_tune_from"])
    else:
        model = init_model(
            Vocab.from_corpus(src_corpus), Vocab.from_corpus(tgt_corpus), **model_kw
        )
    pairs = [
        (model.src_vocab.ids(s), model.tgt_vocab.ids(t))
        for s, t in zip(src_corpus, tgt_corpus)
    ]
    try:
        result = train(model, pairs, cfg, out_dir=out_dir)
    except DivergenceError as exc:
        raise click.ClickException(f"{config_path}: training diverged: {exc}") from exc
    final = result.log[-1].train_loss if result.log else float("nan")
    click.echo(
        f"trained {result.iterations} iterations, final loss {final:.4f}, "
        f"{result.skipped_pairs} overlong pairs skipped"
    )


@nmt.command("grad-check")
def nmt_grad_check():
    """Check analytic gradients against finite differences on a random
    model (embedding 8, hidden 6, seed 0) at tolerance 1e-3."""
    rng = np.random.default_rng(0)
    src_vocab = Vocab([f"s{i}" for i in range(5)])
    tgt_vocab = Vocab([f"t{i}" for i in range(4)])
    model = init_model(src_vocab, tgt_vocab, embedding_dim=8, hidden_dim=6, seed=0)
    src = [int(rng.integers(4, len(src_vocab))) for _ in range(4)]
    tgt = [int(rng.integers(4, len(tgt_vocab))) for _ in range(3)]
    report = gradient_check(model, src, tgt)
    status = "PASS" if report.passed else "FAIL"
    click.echo(
        f"{status}: max relative error {report.max_rel_error:.3e} "
        f"(tolerance {report.tolerance})"
    )
    if not report.passed:
        for entry in report.worst(5):
            click.echo(f"  {entry}", err=True)
        raise SystemExit(1)


# ---------------------------------------------------------------- decode


@cli.command("decode")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--mt", "mt_path", required=True, type=click.Path(exists=True))
@click.option("--src", "src_path", type=click.Path(exists=True), default=None)
@click.option("--nbest", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--beam", type=click.IntRange(min=1), default=None,
              help="Beam width, at least --nbest; defaults to --nbest.")
@click.option("--weights", "weights_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--best-out", "best_path", type=click.Path(), default=None,
              help="Also write the single best hypothesis per line here.")
def decode_cmd(config_path, mt_path, src_path, nbest, beam, weights_path, out_path, best_path):
    """Beam-decode an ensemble declared in a config file.

    The config declares `scorer <name> model=<path> input=mt|src weight=<w>`
    lines and at most one `feature pep input=mt|union weight=<w>` line. A
    weights file from the tuner overrides the declared weights of the
    features it names; it may name no other feature. The --best-out line
    is the best non-empty hypothesis of the whole beam, or the MT line
    when every hypothesis is empty.
    """
    if beam is not None and beam < nbest:
        raise click.BadParameter(f"{beam} is below --nbest {nbest}", param_hint="'--beam'")
    weights = read_weights(weights_path) if weights_path is not None else {}
    ensemble = Ensemble(config_path)
    for name in weights:
        if name not in ensemble.feature_names:
            raise click.ClickException(
                f"{weights_path}: feature {name!r} is not in the ensemble "
                f"({', '.join(ensemble.feature_names)})"
            )
    if src_path is None and ensemble.needs_src():
        raise click.UsageError("config references src input but --src not given")
    paths = [mt_path] if src_path is None else [mt_path, src_path]
    mt_corpus, *src_side = read_parallel(*paths)
    src_corpus = src_side[0] if src_side else [()] * len(mt_corpus)

    width = nbest if beam is None else beam
    lists = []
    best = []
    truncated = 0
    for i, (mt, src) in enumerate(zip(mt_corpus, src_corpus)):
        bindings, pep = reweight(*ensemble.bindings_for(mt, src), weights)
        nb = beam_decode(bindings, pep=pep, beam=width, sentence_id=i)
        truncated += nb.truncated
        lists.append(replace(nb, entries=nb.entries[:nbest]))
        best.append(next((e.tokens for e in nb.entries if e.tokens), mt))
    write_nbest(lists, out_path)
    if best_path is not None:
        write_sentences(best_path, best)
    msg = f"decoded {len(lists)} sentences"
    if truncated:
        msg += f" ({truncated} truncated)"
    click.echo(msg)


# ------------------------------------------------------------------ tune


@cli.command("tune")
@click.option("--dev", "dev_prefix", required=True)
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--iterations", default=2, show_default=True, type=click.IntRange(min=1))
@click.option("--beam", default=12, show_default=True, type=click.IntRange(min=1))
@click.option("--inner-epochs", default=15, show_default=True, type=click.IntRange(min=1))
@click.option("--out", "out_path", required=True, type=click.Path())
def tune_cmd(dev_prefix, config_path, iterations, beam, inner_epochs, out_path):
    """Optimize feature weights toward lower TER on a dev triplet set (MIRA
    step cap 0.01, shuffle seed 0)."""
    ensemble = Ensemble(config_path)
    dev = read_triplets(dev_prefix)
    cfg = TuneConfig(outer_iterations=iterations, beam=beam, inner_epochs=inner_epochs)
    weights = tune(dev, lambda t: ensemble.bindings_for(t.mt, t.src), cfg)
    write_weights(out_path, weights)
    click.echo(Path(out_path).read_text(encoding="utf-8"), nl=False)


# ---------------------------------------------------------------- report


@cli.command("report")
@click.option("--ref", "ref_path", required=True, type=click.Path(exists=True))
@click.option("--mt", "mt_path", required=True, type=click.Path(exists=True))
@click.option(
    "--system",
    "systems",
    multiple=True,
    help="name=FILE; may be repeated.",
)
@click.option("--tsv", is_flag=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def report_cmd(ref_path, mt_path, systems, tsv, out_path):
    """Score table of systems against the reference, baseline included."""
    system_paths = {}
    for item in systems:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise click.UsageError(f"--system expects name=FILE, got {item!r}")
        if name in system_paths:
            raise click.UsageError(f"duplicate system name {name!r}")
        system_paths[name] = path
    refs, mt, *outputs = read_parallel(ref_path, mt_path, *system_paths.values())
    rows = evaluate_systems(dict(zip(system_paths, outputs)), mt, refs)
    text = format_tsv(rows) if tsv else format_table(rows)
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    click.echo(text, nl=False)


# ----------------------------------------------------------------- synth


@cli.group()
def synth():
    """Synthetic triplet generation."""


@synth.command("corrupt")
@click.option("--pe", "pe_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_prefix", required=True)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--substitution", default=0.0, show_default=True, type=_FloatRange(0, 1))
@click.option("--deletion", default=0.0, show_default=True, type=_FloatRange(0, 1))
@click.option("--insertion", default=0.0, show_default=True, type=_FloatRange(0, 1))
@click.option("--swap", default=0.0, show_default=True, type=_FloatRange(0, 1))
@click.option("--confusion", "confusion_path", type=click.Path(exists=True), default=None)
@click.option("--fillers", default="", help="Comma-separated insertion tokens.")
def synth_corrupt_cmd(
    pe_path, out_prefix, seed, substitution, deletion, insertion, swap,
    confusion_path, fillers,
):
    """Derive noisy (src, mt, pe) triplets from clean text."""
    confusion = read_confusion(confusion_path) if confusion_path else None
    try:
        spec = NoiseSpec(
            substitution=substitution,
            deletion=deletion,
            insertion=insertion,
            swap=swap,
            confusion=confusion,
            fillers=tuple(t for t in fillers.split(",") if t),
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    triplets = synth_corrupt(read_sentences(pe_path), spec, seed)
    write_triplets(out_prefix, triplets)
    pool_ter = corpus_ter([(t.mt, t.pe) for t in triplets])
    click.echo(f"wrote {len(triplets)} triplets, corpus error rate {pool_ter:.2f}")


@synth.command("roundtrip")
@click.option("--mono", "mono_path", required=True, type=click.Path(exists=True))
@click.option("--reverse", "reverse_path", required=True, type=click.Path(exists=True))
@click.option("--forward", "forward_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_prefix", required=True)
def synth_roundtrip(mono_path, reverse_path, forward_path, out_prefix):
    """Round-trip monolingual text through two models, decoding greedily,
    into triplets."""
    mono = read_sentences(mono_path)
    reverse_model = ckpt.load(reverse_path)
    forward_model = ckpt.load(forward_path)
    result = roundtrip_generate(mono, reverse_model, forward_model)
    if not result.triplets:
        raise RoundtripError(
            f"--mono {mono_path}: all {result.dropped} sentences dropped (a decode "
            "truncated or came back empty); no triplets written"
        )
    write_triplets(out_prefix, result.triplets)
    click.echo(f"kept {len(result.triplets)} triplets, dropped {result.dropped}")


# ------------------------------------------------------------------- run


class _chdir:
    def __init__(self, path):
        self.path = path

    def __enter__(self):
        self.prev = os.getcwd()
        os.chdir(self.path)

    def __exit__(self, *exc):
        os.chdir(self.prev)


def _stage_action(args: list[str]):
    def action(ws: Path):
        with _chdir(ws):
            cli.main(args=args, prog_name="apeforge", standalone_mode=False)

    return action


@cli.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def run_cmd(config_path):
    """Execute a declared stage graph inside its workspace: the directory
    APEFORGE_WORKSPACE names when it is set, else the config file's own
    directory."""
    config_path = Path(config_path)
    stages = parse_pipeline(read_text(config_path), str(config_path), _stage_action)
    workspace = Path(os.environ.get("APEFORGE_WORKSPACE") or config_path.parent)
    report = run_stages(workspace, stages)
    for name in report.executed:
        click.echo(f"ran {name}")
    for name in report.skipped:
        click.echo(f"skipped {name} (unchanged)")


if __name__ == "__main__":
    main()
