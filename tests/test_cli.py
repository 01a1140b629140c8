"""Command-line surface, exercised through the in-process runner."""

import json
import re
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from apeforge.cli import cli
from apeforge.corpus import Triplet, Vocab, read_sentences, read_triplets, write_triplets
from apeforge.decoder import read_nbest
from apeforge.ngram_lm import train_lm, write_arpa
from apeforge.nmt import DivergenceError, TrainConfig, init_model, train
from apeforge.nmt import checkpoint as ckpt
from apeforge.pipeline import MANIFEST_NAME
from apeforge.subword import MODEL_HEADER, learn_bpe, save_model


@pytest.fixture
def runner():
    return CliRunner()


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


GOOD = "Die Katze schläft friedlich auf dem warmen Sofa im Wohnzimmer ."
SHORT = "Zu kurz ."
LOWER = "die Katze schläft friedlich auf dem warmen Sofa im Wohnzimmer ."


class TestCorpusCommands:
    def test_filter_wellformed(self, runner, tmp_path):
        src = tmp_path / "in.txt"
        out = tmp_path / "out.txt"
        write(src, [GOOD, SHORT, LOWER])
        result = runner.invoke(
            cli, ["corpus", "filter-wellformed", "--in", str(src), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert "kept 1 of 3" in result.output
        assert read_sentences(out) == [tuple(GOOD.split())]

    def test_mix_oversamples_in_order(self, runner, tmp_path):
        a = Triplet(src=("s1",), mt=("m1",), pe=("p1",))
        b = Triplet(src=("s2",), mt=("m2",), pe=("p2",))
        write_triplets(tmp_path / "a", [a])
        write_triplets(tmp_path / "b", [b])
        spec = tmp_path / "mix.txt"
        write(spec, [f"{tmp_path / 'a'} 2", f"{tmp_path / 'b'} 1"])
        result = runner.invoke(
            cli, ["corpus", "mix", "--spec", str(spec), "--out", str(tmp_path / "both")]
        )
        assert result.exit_code == 0, result.output
        assert read_triplets(tmp_path / "both") == [a, a, b]


class TestBpeCommands:
    def test_learn_apply_revert_roundtrip(self, runner, tmp_path):
        corpus = tmp_path / "text.txt"
        write(corpus, ["der hund bellt laut", "der hund schläft", "laut bellt er"])
        model = tmp_path / "bpe.model"
        result = runner.invoke(
            cli,
            ["bpe", "learn", "--in", str(corpus), "--merges", "12", "--out", str(model)],
        )
        assert result.exit_code == 0, result.output
        assert "learned" in result.output

        segmented = tmp_path / "seg.txt"
        result = runner.invoke(
            cli,
            [
                "bpe", "apply",
                "--model", str(model),
                "--in", str(corpus),
                "--out", str(segmented),
            ],
        )
        assert result.exit_code == 0, result.output

        restored = tmp_path / "back.txt"
        result = runner.invoke(
            cli, ["bpe", "revert", "--in", str(segmented), "--out", str(restored)]
        )
        assert result.exit_code == 0, result.output
        assert restored.read_text() == corpus.read_text()


class TestEvalCommand:
    def test_corpus_ter_of_identity_is_zero(self, runner, tmp_path):
        f = tmp_path / "same.txt"
        write(f, ["ein haus am see", "der hund"])
        result = runner.invoke(
            cli, ["eval", "--metric", "ter", "--hyp", str(f), "--ref", str(f)]
        )
        assert result.exit_code == 0
        assert result.output == "0.00\n"

    def test_corpus_bleu_of_identity_is_100(self, runner, tmp_path):
        f = tmp_path / "same.txt"
        write(f, ["ein haus am see steht dort"])
        result = runner.invoke(
            cli, ["eval", "--metric", "bleu", "--hyp", str(f), "--ref", str(f)]
        )
        assert result.exit_code == 0
        assert result.output == "100.00\n"

    def test_per_sentence_lines(self, runner, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        write(hyp, ["ein haus im see", "der hund"])
        write(ref, ["ein haus am see", "der hund"])
        result = runner.invoke(
            cli,
            [
                "eval", "--metric", "ter",
                "--hyp", str(hyp), "--ref", str(ref),
                "--per-sentence",
            ],
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == ["0\t25.00\t0,0,1,0", "1\t0.00\t0,0,0,0"]

    def test_per_sentence_rejects_bleu(self, runner, tmp_path):
        f = tmp_path / "f.txt"
        write(f, ["ein haus"])
        result = runner.invoke(
            cli,
            ["eval", "--metric", "bleu", "--hyp", str(f), "--ref", str(f), "--per-sentence"],
        )
        assert result.exit_code != 0

    def test_length_mismatch_fails(self, runner, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        write(hyp, ["ein haus"])
        write(ref, ["ein haus", "der hund"])
        result = runner.invoke(
            cli, ["eval", "--metric", "ter", "--hyp", str(hyp), "--ref", str(ref)]
        )
        assert result.exit_code == 1
        assert result.output == (
            f"Error: {hyp}: 1 lines, expected 2 to match parallel files\n"
        )

    @pytest.mark.parametrize(
        "metric, extra", [("ter", []), ("bleu", []), ("ter", ["--per-sentence"])]
    )
    @pytest.mark.parametrize("empty_side", ["hyp", "ref", "both"])
    def test_empty_file_fails(self, runner, tmp_path, metric, extra, empty_side):
        paths = {side: tmp_path / f"{side}.txt" for side in ("hyp", "ref")}
        for side, path in paths.items():
            path.write_text("" if empty_side in (side, "both") else "ein haus\n")
        result = runner.invoke(
            cli,
            ["eval", "--metric", metric,
             "--hyp", str(paths["hyp"]), "--ref", str(paths["ref"])] + extra,
        )
        assert result.exit_code == 1
        named = paths["ref" if empty_side == "ref" else "hyp"]
        assert result.output == f"Error: {named}: no sentences\n"


IN_DOMAIN = [
    "der hund bellt laut",
    "der hund schläft tief",
    "der hund frisst gern",
    "ein hund bellt hier",
]
OUT_DOMAIN = [
    "die börse schließt heute",
    "die aktie fällt stark",
    "die bank öffnet spät",
    "der kurs steigt langsam",
]


class TestLmCommands:
    def test_train_and_xent(self, runner, tmp_path):
        corpus = tmp_path / "in.txt"
        write(corpus, IN_DOMAIN)
        model = tmp_path / "lm.arpa"
        result = runner.invoke(
            cli, ["lm", "train", "--in", str(corpus), "--out", str(model)]
        )
        assert result.exit_code == 0, result.output
        assert model.exists()

        result = runner.invoke(
            cli, ["lm", "xent", "--model", str(model), "--in", str(corpus)]
        )
        assert result.exit_code == 0, result.output
        float(result.output.strip())

    def test_order_1_model_scores(self, runner, tmp_path):
        corpus = tmp_path / "in.txt"
        write(corpus, ["a b", "c"])
        model = tmp_path / "o1.arpa"
        args = ["lm", "train", "--in", str(corpus), "--order", "1", "--out", str(model)]
        assert runner.invoke(cli, args).exit_code == 0
        assert model.read_text().count("\t<s>\n") == 1
        result = runner.invoke(
            cli, ["lm", "xent", "--model", str(model), "--in", str(corpus)]
        )
        assert result.exit_code == 0, result.output
        assert result.output == "2.1006\n"

    def test_train_with_token_budget(self, runner, tmp_path):
        corpus = tmp_path / "in.txt"
        write(corpus, IN_DOMAIN)
        model = tmp_path / "lm.arpa"
        result = runner.invoke(
            cli,
            [
                "lm", "train",
                "--in", str(corpus),
                "--out", str(model),
                "--sample-tokens", "8",
                "--sample-seed", "1",
            ],
        )
        assert result.exit_code == 0, result.output
        # 4-token lines: the budget is crossed by the second line
        assert "2 sentences (8 tokens)" in result.output


class TestSelectXent:
    def _lms(self, runner, tmp_path):
        for name, lines in (("in", IN_DOMAIN), ("out", OUT_DOMAIN)):
            corpus = tmp_path / f"{name}.txt"
            write(corpus, lines)
            result = runner.invoke(
                cli,
                ["lm", "train", "--in", str(corpus), "--out", str(tmp_path / f"{name}.arpa")],
            )
            assert result.exit_code == 0, result.output
        return tmp_path / "in.arpa", tmp_path / "out.arpa"

    def test_keeps_most_in_domain_line(self, runner, tmp_path):
        in_lm, out_lm = self._lms(runner, tmp_path)
        mixed = tmp_path / "mixed.txt"
        write(mixed, ["der hund bellt gern", "die aktie fällt heute"])
        result = runner.invoke(
            cli,
            [
                "select", "xent",
                "--in-domain", str(in_lm),
                "--out-domain", str(out_lm),
                "--corpus", str(mixed),
                "--keep", "1",
            ],
        )
        assert result.exit_code == 0, result.output
        assert result.output == "der hund bellt gern\n"

    def test_writes_file_with_fraction(self, runner, tmp_path):
        in_lm, out_lm = self._lms(runner, tmp_path)
        mixed = tmp_path / "mixed.txt"
        write(mixed, ["der hund bellt gern", "die aktie fällt heute"])
        out = tmp_path / "kept.txt"
        result = runner.invoke(
            cli,
            [
                "select", "xent",
                "--in-domain", str(in_lm),
                "--out-domain", str(out_lm),
                "--corpus", str(mixed),
                "--keep", "0.5",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "kept 1 of 2" in result.output
        assert read_sentences(out) == [tuple("der hund bellt gern".split())]


class TestSelectTer:
    def test_selects_and_reports(self, runner, tmp_path):
        pool = [
            Triplet(src=("s",), mt=("a", "b", "c"), pe=("a", "b", "c")),
            Triplet(src=("s",), mt=("a", "x", "c"), pe=("a", "b", "c")),
            Triplet(src=("s",), mt=("q", "r"), pe=("a", "b", "c", "d")),
        ]
        reference = [
            Triplet(src=("s",), mt=("d", "e", "f"), pe=("d", "e", "f")),
            Triplet(src=("s",), mt=("d", "y", "f"), pe=("d", "e", "f")),
        ]
        write_triplets(tmp_path / "pool", pool)
        write_triplets(tmp_path / "ref", reference)
        report = tmp_path / "stats.txt"
        result = runner.invoke(
            cli,
            [
                "select", "ter",
                "--pool", str(tmp_path / "pool"),
                "--reference", str(tmp_path / "ref"),
                "--n", "1",
                "--out", str(tmp_path / "picked"),
                "--report", str(report),
            ],
        )
        assert result.exit_code == 0, result.output
        picked = read_triplets(tmp_path / "picked")
        assert 1 <= len(picked) <= 2
        text = report.read_text()
        assert text.startswith("count ")
        assert "corpus_ter" in text

    def test_infinite_margin_keeps_whole_pool(self, runner, tmp_path):
        # the pool the default margin drops entirely (see
        # _select_pool_outside_reference) survives an infinite margin
        args, _ = _select_pool_outside_reference(tmp_path)
        result = runner.invoke(cli, args + ["--outlier-margin", "inf"])
        assert result.exit_code == 0, result.output
        assert "selected 1 of 3 triplets (0 outliers dropped)" in result.output


TRAIN_CFG = """\
# toy-scale model
embedding_dim 8
hidden_dim 8
init_seed 1
batch_size 4
epochs 2
shuffle_seed 3
checkpoint_every 1000000
log_every 2
max_iterations 6
"""


FINE_TUNE_CFG = """\
batch_size 2
epochs 2
shuffle_seed 5
checkpoint_every 1000000
"""

BASE_SRC = ["a b c d", "b c", "c d a", "d a b"]
BASE_TGT = ["x y z w", "y z", "z w x", "w x y"]


def nmt_train(runner, tmp_path, name, src, tgt, cfg_text):
    """`nmt train` on the given lines; returns (result, config, model.bin)."""
    write(tmp_path / f"{name}.src", src)
    write(tmp_path / f"{name}.tgt", tgt)
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / name
    result = runner.invoke(
        cli,
        [
            "nmt", "train",
            "--src", str(tmp_path / f"{name}.src"),
            "--tgt", str(tmp_path / f"{name}.tgt"),
            "--config", str(cfg), "--out", str(out),
        ],
    )
    return result, cfg, out / "model.bin"


class TestFineTuning:
    @pytest.fixture
    def base(self, runner, tmp_path):
        result, _, path = nmt_train(runner, tmp_path, "base", BASE_SRC, BASE_TGT, TRAIN_CFG)
        assert result.exit_code == 0, result.output
        return path

    def test_trains_the_checkpoint_on_its_own_vocabularies(self, runner, tmp_path, base):
        # the base sentences reversed: the files meet the words in another order
        src = [" ".join(reversed(s.split())) for s in BASE_SRC]
        tgt = [" ".join(reversed(t.split())) for t in BASE_TGT]
        cfg_text = f"fine_tune_from {base}\n{FINE_TUNE_CFG}"
        result, _, tuned = nmt_train(runner, tmp_path, "tuned", src, tgt, cfg_text)
        assert result.exit_code == 0, result.output

        model = ckpt.load(base)
        pairs = [
            (model.src_vocab.ids(s.split()), model.tgt_vocab.ids(t.split()))
            for s, t in zip(src, tgt)
        ]
        cfg = TrainConfig(batch_size=2, epochs=2, shuffle_seed=5, checkpoint_every=10**6)
        train(model, pairs, cfg, out_dir=tmp_path / "library")
        assert tuned.read_bytes() == (tmp_path / "library" / "model.bin").read_bytes()

    def test_unseen_words_become_unk(self, runner, tmp_path, base):
        src = ["a b e", "e d", "c d a"]
        tgt = ["x y v", "v w", "z w x"]
        cfg_text = f"fine_tune_from {base}\n{FINE_TUNE_CFG}"
        result, _, tuned = nmt_train(runner, tmp_path, "tuned", src, tgt, cfg_text)
        assert result.exit_code == 0, result.output
        assert "trained 4 iterations" in result.output
        base_model, tuned_model = ckpt.load(base), ckpt.load(tuned)
        assert tuned_model.src_vocab == base_model.src_vocab
        assert tuned_model.tgt_vocab == base_model.tgt_vocab
        assert "e" not in tuned_model.src_vocab

    @pytest.mark.parametrize("key", ["embedding_dim", "hidden_dim", "init_seed"])
    def test_model_key_beside_checkpoint_fails(self, runner, tmp_path, base, key):
        cfg_text = f"fine_tune_from {base}\n{key} 4\n{FINE_TUNE_CFG}"
        result, cfg, tuned = nmt_train(runner, tmp_path, "tuned", BASE_SRC, BASE_TGT, cfg_text)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            f"Error: {cfg}: {key} cannot be set with fine_tune_from; "
            "the checkpoint fixes them\n"
        )
        assert not tuned.exists()


class TestNmtCommands:
    def test_train_writes_model(self, runner, tmp_path):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        write(src, ["a b c", "b a", "c c a", "a", "b c", "c a b a"])
        write(tgt, ["a b c", "b a", "c c a", "a", "b c", "c a b a"])
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN_CFG)
        out = tmp_path / "run1"
        result = runner.invoke(
            cli,
            [
                "nmt", "train",
                "--src", str(src), "--tgt", str(tgt),
                "--config", str(cfg), "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        # 6 pairs / batch 4 = 2 batches per epoch, 2 epochs
        assert "trained 4 iterations" in result.output
        model = ckpt.load(out / "model.bin")
        assert "a" in model.src_vocab

    def test_bad_config_key_fails(self, runner, tmp_path):
        for name in ("src.txt", "tgt.txt"):
            write(tmp_path / name, ["a b"])
        cfg = tmp_path / "train.cfg"
        cfg.write_text("learning_rate 0.1\n")
        result = runner.invoke(
            cli,
            [
                "nmt", "train",
                "--src", str(tmp_path / "src.txt"),
                "--tgt", str(tmp_path / "tgt.txt"),
                "--config", str(cfg),
                "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code != 0
        assert "unknown key 'learning_rate'" in result.output

    def test_non_numeric_config_value_fails(self, runner, tmp_path):
        for name in ("src.txt", "tgt.txt"):
            write(tmp_path / name, ["a b"])
        cfg = tmp_path / "train.cfg"
        cfg.write_text("hidden_dim 8\nepochs ten\n")
        result = runner.invoke(
            cli,
            [
                "nmt", "train",
                "--src", str(tmp_path / "src.txt"),
                "--tgt", str(tmp_path / "tgt.txt"),
                "--config", str(cfg),
                "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == 1
        assert not isinstance(result.exception, ValueError)
        assert f"{cfg}: line 2: bad value 'ten' for key 'epochs'" in result.output

    def test_divergence_is_one_error_line(self, runner, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("non-finite loss at iteration 1 (epoch 1, batch 1)")

        monkeypatch.setattr("apeforge.cli.train", diverge)
        for name in ("src.txt", "tgt.txt"):
            write(tmp_path / name, ["a b"])
        cfg = tmp_path / "train.cfg"
        cfg.write_text("batch_size 1\n")
        result = runner.invoke(
            cli,
            [
                "nmt", "train",
                "--src", str(tmp_path / "src.txt"),
                "--tgt", str(tmp_path / "tgt.txt"),
                "--config", str(cfg),
                "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            f"Error: {cfg}: training diverged: "
            "non-finite loss at iteration 1 (epoch 1, batch 1)\n"
        )

    def test_out_of_range_config_value_fails(self, runner, tmp_path):
        for name in ("src.txt", "tgt.txt"):
            write(tmp_path / name, ["a b"])
        cfg = tmp_path / "train.cfg"
        cfg.write_text("batch_size 0\n")
        result = runner.invoke(
            cli,
            [
                "nmt", "train",
                "--src", str(tmp_path / "src.txt"),
                "--tgt", str(tmp_path / "tgt.txt"),
                "--config", str(cfg),
                "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"{cfg}: batch_size must be >= 1" in result.output

    @pytest.mark.parametrize(
        "line, rule",
        [
            ("epochs 0", "epochs must be >= 1"),
            ("checkpoint_every 0", "checkpoint_every must be >= 1"),
            ("log_every 0", "log_every must be >= 1"),
            ("max_iterations 0", "max_iterations must be >= 1"),
            ("max_iterations -1", "max_iterations must be >= 1"),
            ("shuffle_seed -1", "shuffle_seed must be >= 0"),
            ("init_seed -1", "init_seed must be >= 0"),
            ("embedding_dim 0", "embedding_dim must be >= 1"),
            ("hidden_dim 0", "hidden_dim must be >= 1"),
            # Adadelta's rho and epsilon and the clip norm are constants
            ("rho 0.9", "line 2: unknown key 'rho'"),
            ("epsilon 1e-8", "line 2: unknown key 'epsilon'"),
            ("clip_norm 5", "line 2: unknown key 'clip_norm'"),
        ],
    )
    def test_config_value_outside_its_range_fails(self, runner, tmp_path, line, rule):
        for name in ("src.txt", "tgt.txt"):
            write(tmp_path / name, ["a b"])
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"batch_size 1\n{line}\n")
        out = tmp_path / "out"
        result = runner.invoke(
            cli,
            [
                "nmt", "train",
                "--src", str(tmp_path / "src.txt"),
                "--tgt", str(tmp_path / "tgt.txt"),
                "--config", str(cfg),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: {cfg}: {rule}\n"
        assert not out.exists()

    def test_grad_check_passes(self, runner):
        result = runner.invoke(cli, ["nmt", "grad-check"])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("PASS")
        assert result.output.endswith("(tolerance 0.001)\n")


@pytest.fixture(scope="module")
def copy_checkpoint(tmp_path_factory, copy_task):
    """The session copy model saved to disk, plus a decodable text file."""
    vocab, pairs, result, _ = copy_task
    root = tmp_path_factory.mktemp("ckpt")
    path = root / "copy.bin"
    ckpt.save(result.model, path)
    lines = [" ".join(vocab.words(src)) for src, _ in pairs[:5]]
    text = root / "mt.txt"
    write(text, lines)
    return path, text, lines


class TestDecodeCommand:
    def _config(self, tmp_path, model_path, pep=True):
        lines = [f"scorer mt model={model_path} input=mt weight=1.0"]
        if pep:
            lines.append("feature pep input=mt weight=1.0")
        cfg = tmp_path / "decoder.cfg"
        write(cfg, lines)
        return cfg

    def test_copy_model_echoes_input(self, runner, tmp_path, copy_checkpoint):
        model_path, text, lines = copy_checkpoint
        cfg = self._config(tmp_path, model_path)
        out = tmp_path / "nbest.txt"
        best = tmp_path / "best.txt"
        result = runner.invoke(
            cli,
            [
                "decode",
                "--config", str(cfg),
                "--mt", str(text),
                "--nbest", "2",
                "--out", str(out),
                "--best-out", str(best),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "decoded 5 sentences" in result.output
        lists = read_nbest(out)
        assert len(lists) == 5
        assert all(len(nb.entries) <= 2 for nb in lists)
        assert best.read_text() == text.read_text()

    def test_weights_file_overrides_config(self, runner, tmp_path, copy_checkpoint):
        model_path, text, _ = copy_checkpoint
        cfg = self._config(tmp_path, model_path)
        weights = tmp_path / "weights.txt"
        weights.write_text("mt\t0.500000\npep\t2.000000\n")
        out = tmp_path / "nbest.txt"
        result = runner.invoke(
            cli,
            [
                "decode",
                "--config", str(cfg),
                "--mt", str(text),
                "--weights", str(weights),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        first = read_nbest(out)[0].entries[0]
        feats = dict(first.features)
        # per-feature scores are reported unweighted; the combined score
        # reflects the overridden weights. Tolerance covers the 6-decimal
        # serialization of every term.
        assert first.combined == pytest.approx(
            0.5 * feats["mt"] + 2.0 * feats["pep"], abs=2e-6
        )

    def test_weights_file_may_leave_a_feature_out(self, runner, tmp_path, copy_checkpoint):
        model_path, text, _ = copy_checkpoint
        cfg = self._config(tmp_path, model_path)
        weights = tmp_path / "weights.txt"
        weights.write_text("pep\t2.000000\n")
        out = tmp_path / "nbest.txt"
        result = runner.invoke(
            cli,
            [
                "decode",
                "--config", str(cfg),
                "--mt", str(text),
                "--weights", str(weights),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        first = read_nbest(out)[0].entries[0]
        feats = dict(first.features)
        # mt keeps its config weight 1.0
        assert first.combined == pytest.approx(feats["mt"] + 2.0 * feats["pep"], abs=2e-6)

    @pytest.mark.parametrize("name", ["mtt", "pepp"])
    def test_weight_outside_the_ensemble_fails(self, runner, tmp_path, copy_checkpoint, name):
        model_path, text, _ = copy_checkpoint
        cfg = self._config(tmp_path, model_path)
        weights = tmp_path / "weights.txt"
        weights.write_text(f"mt\t0.500000\n{name}\t1.000000\n")
        out = tmp_path / "nbest.txt"
        result = runner.invoke(
            cli,
            [
                "decode",
                "--config", str(cfg),
                "--mt", str(text),
                "--weights", str(weights),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            f"Error: {weights}: feature {name!r} is not in the ensemble (mt, pep)\n"
        )
        assert not out.exists()

    @pytest.fixture
    def eos_first(self, tmp_path, copy_checkpoint):
        """A decoder config over the copy model with </s> raised so far that
        the empty hypothesis ranks first, and the MT file."""
        model_path, text, _ = copy_checkpoint
        model = ckpt.load(model_path)
        model.params["out_b"][Vocab.EOS] += 50.0
        ckpt.save(model, tmp_path / "eos.bin")
        return self._config(tmp_path, tmp_path / "eos.bin", pep=False), text

    def _decode(self, runner, cfg, text, out, *args):
        result = runner.invoke(
            cli, ["decode", "--config", str(cfg), "--mt", str(text), "--out", str(out), *args]
        )
        assert result.exit_code == 0, result.output
        return read_nbest(out)

    def test_best_out_without_a_non_empty_hypothesis_is_the_mt_line(
        self, runner, tmp_path, eos_first
    ):
        cfg, text = eos_first
        best = tmp_path / "best.txt"
        lists = self._decode(
            runner, cfg, text, tmp_path / "nbest.txt", "--beam", "1", "--best-out", str(best)
        )
        assert all(nb.entries[0].tokens == () for nb in lists)
        assert best.read_text() == text.read_text()

    def test_best_out_is_the_best_non_empty_hypothesis_of_the_beam(
        self, runner, tmp_path, eos_first
    ):
        cfg, text = eos_first
        full = self._decode(runner, cfg, text, tmp_path / "full.txt", "--nbest", "4")
        assert all(nb.entries[0].tokens == () for nb in full)
        best = tmp_path / "best.txt"
        cut = self._decode(
            runner, cfg, text, tmp_path / "cut.txt",
            "--nbest", "1", "--beam", "4", "--best-out", str(best),
        )
        # the n-best file keeps the empty best; --best-out skips it
        assert [nb.entries for nb in cut] == [nb.entries[:1] for nb in full]
        assert read_sentences(best) == [nb.entries[1].tokens for nb in full]

    def test_non_numeric_weight_fails(self, runner, tmp_path, copy_checkpoint):
        model_path, text, _ = copy_checkpoint
        cfg = self._config(tmp_path, model_path)
        weights = tmp_path / "weights.txt"
        weights.write_text("pep\t1.000000\nmt\tabc\n")
        result = runner.invoke(
            cli,
            [
                "decode",
                "--config", str(cfg),
                "--mt", str(text),
                "--weights", str(weights),
                "--out", str(tmp_path / "nbest.txt"),
            ],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"{weights}: line 2: bad weight 'abc' for 'mt'" in result.output

    def test_src_input_requires_src_file(self, runner, tmp_path, copy_checkpoint):
        model_path, text, _ = copy_checkpoint
        cfg = tmp_path / "decoder.cfg"
        write(cfg, [f"scorer rev model={model_path} input=src weight=1.0"])
        result = runner.invoke(
            cli,
            ["decode", "--config", str(cfg), "--mt", str(text), "--out", str(tmp_path / "o")],
        )
        assert result.exit_code != 0
        assert "--src not given" in result.output


class TestTuneCommand:
    def test_writes_weight_lines(self, runner, tmp_path, copy_checkpoint):
        model_path, _, lines = copy_checkpoint
        sentences = [tuple(line.split()) for line in lines[:3]]
        dev = [Triplet(src=s, mt=s, pe=s) for s in sentences]
        write_triplets(tmp_path / "dev", dev)
        cfg = tmp_path / "decoder.cfg"
        write(
            cfg,
            [
                f"scorer mt model={model_path} input=mt weight=1.0",
                "feature pep input=mt weight=1.0",
            ],
        )
        out = tmp_path / "weights.txt"
        result = runner.invoke(
            cli,
            [
                "tune",
                "--dev", str(tmp_path / "dev"),
                "--config", str(cfg),
                "--iterations", "1",
                "--beam", "2",
                "--inner-epochs", "2",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        parsed = {}
        for line in out.read_text().splitlines():
            name, value = line.split("\t")
            parsed[name] = float(value)
        assert set(parsed) == {"mt", "pep"}


class TestReportCommand:
    def test_table_includes_baseline_and_systems(self, runner, tmp_path):
        write(tmp_path / "ref.txt", ["ein haus am see", "der hund schläft"])
        write(tmp_path / "mt.txt", ["ein haus im see", "der hund bellt"])
        write(tmp_path / "sys.txt", ["ein haus am see", "der hund schläft"])
        result = runner.invoke(
            cli,
            [
                "report",
                "--ref", str(tmp_path / "ref.txt"),
                "--mt", str(tmp_path / "mt.txt"),
                "--system", f"fixed={tmp_path / 'sys.txt'}",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "Uncorrected MT (baseline)" in result.output
        assert "fixed" in result.output
        assert result.output.splitlines()[0].startswith("System")

    def test_tsv_written_to_file(self, runner, tmp_path):
        write(tmp_path / "ref.txt", ["ein haus"])
        write(tmp_path / "mt.txt", ["ein haus"])
        out = tmp_path / "table.tsv"
        result = runner.invoke(
            cli,
            [
                "report",
                "--ref", str(tmp_path / "ref.txt"),
                "--mt", str(tmp_path / "mt.txt"),
                "--tsv",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert out.read_text().splitlines()[0] == "system\tter\tbleu\tter_delta\tbleu_delta"

    def test_malformed_system_argument(self, runner, tmp_path):
        write(tmp_path / "f.txt", ["ein haus"])
        result = runner.invoke(
            cli,
            [
                "report",
                "--ref", str(tmp_path / "f.txt"),
                "--mt", str(tmp_path / "f.txt"),
                "--system", "no-equals-sign",
            ],
        )
        assert result.exit_code != 0
        assert "name=FILE" in result.output


class TestSynthCommands:
    def test_corrupt_writes_triplet_files(self, runner, tmp_path):
        write(tmp_path / "pe.txt", ["ein haus am see", "der hund schläft tief"])
        result = runner.invoke(
            cli,
            [
                "synth", "corrupt",
                "--pe", str(tmp_path / "pe.txt"),
                "--out", str(tmp_path / "noisy"),
                "--seed", "3",
                "--deletion", "0.3",
                "--swap", "0.3",
            ],
        )
        assert result.exit_code == 0, result.output
        triplets = read_triplets(tmp_path / "noisy")
        assert len(triplets) == 2
        assert triplets[0].pe == ("ein", "haus", "am", "see")
        assert triplets[0].src == ("nie", "suah", "ma", "ees")

    def test_corrupt_validates_noise(self, runner, tmp_path):
        write(tmp_path / "pe.txt", ["ein haus"])
        result = runner.invoke(
            cli,
            [
                "synth", "corrupt",
                "--pe", str(tmp_path / "pe.txt"),
                "--out", str(tmp_path / "noisy"),
                "--substitution", "0.2",
            ],
        )
        assert result.exit_code != 0
        assert "confusion" in result.output

    def test_roundtrip_copy_model(self, runner, tmp_path, copy_checkpoint):
        model_path, text, lines = copy_checkpoint
        result = runner.invoke(
            cli,
            [
                "synth", "roundtrip",
                "--mono", str(text),
                "--reverse", str(model_path),
                "--forward", str(model_path),
                "--out", str(tmp_path / "rt"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "dropped 0" in result.output
        triplets = read_triplets(tmp_path / "rt")
        assert [t.pe for t in triplets] == [tuple(line.split()) for line in lines]
        assert all(t.mt == t.pe for t in triplets)

    def test_roundtrip_keeping_nothing_writes_nothing(self, runner, tmp_path):
        # untrained models that never predict the end marker: every greedy
        # decode runs to its length cap and is dropped
        vocab = Vocab(["a", "b"])
        model = init_model(vocab, vocab, embedding_dim=2, hidden_dim=2)
        model.params["out_b"][Vocab.EOS] = -1e9
        ckpt.save(model, tmp_path / "model.bin")
        mono = tmp_path / "mono.txt"
        write(mono, ["a b", "b", "b a a"])
        result = runner.invoke(cli, [
            "synth", "roundtrip", "--mono", str(mono), "--reverse", str(tmp_path / "model.bin"),
            "--forward", str(tmp_path / "model.bin"), "--out", str(tmp_path / "rt"),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            f"Error: --mono {mono}: all 3 sentences dropped (a decode truncated or came "
            "back empty); no triplets written\n"
        )
        assert not list(tmp_path.glob("rt*"))


PIPELINE_CFG = """\
# two-stage smoke pipeline
stage corrupt
in pe.txt
out noisy.src noisy.mt noisy.pe
cmd apeforge synth corrupt --pe pe.txt --out noisy --seed 3 --deletion 0.2
end

stage score
in noisy.mt noisy.pe
out table.tsv
cmd apeforge report --ref noisy.pe --mt noisy.mt --tsv --out table.tsv
end
"""


class TestRunCommand:
    def _seed_workspace(self, ws):
        ws.mkdir(parents=True, exist_ok=True)
        write(ws / "pe.txt", ["ein haus am see", "der hund schläft tief und fest"])

    def test_executes_stages_in_workspace(self, runner, tmp_path):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(PIPELINE_CFG)
        self._seed_workspace(tmp_path)
        result = runner.invoke(cli, ["run", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "ran corrupt" in result.output and "ran score" in result.output
        assert (tmp_path / "table.tsv").exists()
        assert (tmp_path / MANIFEST_NAME).exists()

    def test_rerun_skips_everything(self, runner, tmp_path):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(PIPELINE_CFG)
        self._seed_workspace(tmp_path)
        assert runner.invoke(cli, ["run", "--config", str(cfg)]).exit_code == 0
        result = runner.invoke(cli, ["run", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "ran" not in result.output
        assert "skipped corrupt (unchanged)" in result.output
        assert "skipped score (unchanged)" in result.output

    def test_env_variable_places_the_run(self, runner, tmp_path):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(PIPELINE_CFG)
        elsewhere = tmp_path / "elsewhere"
        self._seed_workspace(elsewhere)
        result = runner.invoke(
            cli,
            ["run", "--config", str(cfg)],
            env={"APEFORGE_WORKSPACE": str(elsewhere)},
        )
        assert result.exit_code == 0, result.output
        assert (elsewhere / "table.tsv").exists()
        assert (elsewhere / MANIFEST_NAME).exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["elsewhere", "pipe.cfg"]

    def test_manifest_is_valid_json(self, runner, tmp_path):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(PIPELINE_CFG)
        self._seed_workspace(tmp_path)
        runner.invoke(cli, ["run", "--config", str(cfg)])
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert set(manifest["stages"]) == {"corrupt", "score"}

    def test_config_syntax_error_points_at_line(self, runner, tmp_path):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text("stage a\ncmd eval --metric ter\nbogus directive\nend\n")
        result = runner.invoke(cli, ["run", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "line 3" in result.output
        assert "bogus" in result.output

    def test_unclosed_stage_rejected(self, runner, tmp_path):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text("stage a\ncmd report --ref x --mt x\n")
        result = runner.invoke(cli, ["run", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "not closed" in result.output

    def test_failing_stage_names_itself(self, runner, tmp_path):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(
            "stage broken\n"
            "cmd eval --metric ter --hyp missing.txt --ref missing.txt\n"
            "end\n"
        )
        result = runner.invoke(cli, ["run", "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: stage 'broken' failed: ")
        assert len(result.output.splitlines()) == 1


def _empty_hyp_line(tmp_path):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("ein haus\n\nder hund\n", encoding="utf-8")
    write(tmp_path / "ref.txt", ["ein haus", "am see", "der hund"])
    args = ["eval", "--metric", "ter", "--hyp", str(hyp), "--ref", str(tmp_path / "ref.txt")]
    return args, hyp


def _select_ter_args(tmp_path, pool):
    return [
        "select", "ter",
        "--pool", str(pool),
        "--reference", str(tmp_path / "ref"),
        "--n", "1",
        "--out", str(tmp_path / "picked"),
        "--report", str(tmp_path / "stats.txt"),
    ]


def _misaligned_pool(tmp_path):
    triplets = [Triplet(src=("s",), mt=("a", "b"), pe=("a", "b"))] * 2
    write_triplets(tmp_path / "pool", triplets)
    write_triplets(tmp_path / "ref", triplets)
    write(tmp_path / "pool.mt", ["a b"])
    return _select_ter_args(tmp_path, tmp_path / "pool"), tmp_path / "pool.mt"


def _decode_args(tmp_path, scorer_line):
    cfg = tmp_path / "decoder.cfg"
    write(cfg, [scorer_line])
    write(tmp_path / "mt.txt", ["a b"])
    args = [
        "decode",
        "--config", str(cfg),
        "--mt", str(tmp_path / "mt.txt"),
        "--out", str(tmp_path / "nbest.txt"),
    ]
    return args, cfg


def _bad_scorer_input(tmp_path):
    return _decode_args(tmp_path, "scorer m model=m.bin input=ref weight=1")


def _missing_model(tmp_path):
    model = tmp_path / "missing.bin"
    args, _ = _decode_args(tmp_path, f"scorer m model={model} input=mt weight=1")
    return args, model


def _one_field_mix_line(tmp_path):
    spec = tmp_path / "mix.txt"
    write(spec, [str(tmp_path / "a")])
    return ["corpus", "mix", "--spec", str(spec), "--out", str(tmp_path / "mixed")], spec


def _missing_mix_corpus(tmp_path):
    spec = tmp_path / "mix.txt"
    missing = tmp_path / "missing"
    write(spec, [f"{missing} 2"])
    return ["corpus", "mix", "--spec", str(spec), "--out", str(tmp_path / "mixed")], missing


def _missing_select_pool(tmp_path):
    write_triplets(tmp_path / "ref", [Triplet(src=("s",), mt=("a",), pe=("a",))])
    missing = tmp_path / "missing"
    return _select_ter_args(tmp_path, missing), missing


def _empty_select_pool(tmp_path):
    write_triplets(tmp_path / "ref", [Triplet(src=("s",), mt=("a",), pe=("a",))])
    write_triplets(tmp_path / "pool", [])
    return _select_ter_args(tmp_path, tmp_path / "pool"), tmp_path / "pool"


def _empty_select_reference(tmp_path):
    write_triplets(tmp_path / "ref", [])
    write_triplets(tmp_path / "pool", [Triplet(src=("s",), mt=("a",), pe=("a",))])
    return _select_ter_args(tmp_path, tmp_path / "pool"), tmp_path / "ref"


def _select_pool_outside_reference(tmp_path):
    # every pool triplet has edits; the one reference triplet has none, so
    # the default --outlier-margin drops the whole pool
    write_triplets(tmp_path / "ref", [Triplet(src=("a",), mt=("a",), pe=("a",))])
    pool = [Triplet(src=("s", "t"), mt=("a", "b", "c"), pe=("a", "c"))] * 3
    write_triplets(tmp_path / "pool", pool)
    return _select_ter_args(tmp_path, tmp_path / "pool"), tmp_path / "pool"


def _lm_xent_args(tmp_path, arpa_lines):
    model = tmp_path / "bad.arpa"
    write(model, arpa_lines)
    write(tmp_path / "in.txt", ["ein haus"])
    return ["lm", "xent", "--model", str(model), "--in", str(tmp_path / "in.txt")], model


def _arpa_without_sections(tmp_path):
    return _lm_xent_args(tmp_path, ["\\data\\", "\\end\\"])


def _arpa_non_numeric_logprob(tmp_path):
    return _lm_xent_args(
        tmp_path, ["\\data\\", "ngram 1=1", "", "\\1-grams:", "abc\thaus", "", "\\end\\"]
    )


def _bpe_model_without_header(tmp_path):
    model = tmp_path / "bpe.model"
    write(model, ["e i"])
    write(tmp_path / "in.txt", ["ein haus"])
    args = [
        "bpe", "apply",
        "--model", str(model),
        "--in", str(tmp_path / "in.txt"),
        "--out", str(tmp_path / "out.txt"),
    ]
    return args, model


def _report_args(tmp_path, short):
    ref = tmp_path / "ref.txt"
    write(ref, ["ein haus", "der hund"])
    paths = {"system": tmp_path / "sys.txt", "mt": tmp_path / "mt.txt"}
    for name, path in paths.items():
        write(path, ["ein haus"] if name == short else ["ein haus", "der hund"])
    args = [
        "report",
        "--ref", str(ref),
        "--mt", str(paths["mt"]),
        "--system", f"s={paths['system']}",
    ]
    return args, paths[short]


def _short_report_system(tmp_path):
    return _report_args(tmp_path, "system")


def _short_report_mt(tmp_path):
    return _report_args(tmp_path, "mt")


def _bpe_bad_merge_line(tmp_path):
    # header, inventory, one merge and a blank line come before the bad merge
    args, model = _bpe_model_without_header(tmp_path)
    write(model, [MODEL_HEADER, "#base: a b c d </w>", "a b", "", "ab c d"])
    return args, f"{model}: line 5: bad merge"


def _bpe_repeated_merge(tmp_path):
    args, model = _bpe_model_without_header(tmp_path)
    write(model, [MODEL_HEADER, "#base: a b c </w>", "a b", "b c", "a b"])
    return args, f"{model}: line 5: merge 'a b' given twice"


def _arpa_malformed_ngram_line(tmp_path):
    args, model = _lm_xent_args(
        tmp_path, ["\\data\\", "ngram 1=1", "", "\\1-grams:", "-1.0", "", "\\end\\"]
    )
    return args, f"{model}: line 5: malformed n-gram"


def _arpa_bigram_in_unigram_section(tmp_path):
    args, model = _lm_xent_args(
        tmp_path,
        ["\\data\\", "ngram 1=1", "", "\\1-grams:", "-1.0\tein haus", "", "\\end\\"],
    )
    return args, f"{model}: line 5: 2-gram in 1-gram section"


def _all_training_pairs_overlong(tmp_path):
    cfg = tmp_path / "train.cfg"
    write(cfg, ["max_sentence_length 2"])
    write(tmp_path / "src.txt", ["a b c"])
    write(tmp_path / "tgt.txt", ["x y z"])
    args = [
        "nmt", "train",
        "--src", str(tmp_path / "src.txt"),
        "--tgt", str(tmp_path / "tgt.txt"),
        "--config", str(cfg),
        "--out", str(tmp_path / "run"),
    ]
    return args, "1 overlong pairs"


def _mix_spec_without_corpora(tmp_path):
    spec = tmp_path / "mix.txt"
    write(spec, ["# no corpus yet"])
    args = ["corpus", "mix", "--spec", str(spec), "--out", str(tmp_path / "mixed")]
    return args, f"{spec}: no corpora"


def _repeated_mix_corpus(tmp_path):
    write_triplets(tmp_path / "a", [Triplet(src=("s",), mt=("a",), pe=("a",))])
    spec = tmp_path / "mix.txt"
    write(spec, [f"{tmp_path / 'a'} 1", f"{tmp_path / 'a'} 2"])
    args = ["corpus", "mix", "--spec", str(spec), "--out", str(tmp_path / "mixed")]
    return args, f"{spec}: line 2: corpus '{tmp_path / 'a'}' given twice"


def _nonpositive_mix_factor(tmp_path):
    # the corpus exists, so only the factor can be at fault
    write_triplets(tmp_path / "a", [Triplet(src=("s",), mt=("a",), pe=("a",))])
    spec = tmp_path / "mix.txt"
    write(spec, [f"{tmp_path / 'a'} 1", f"{tmp_path / 'a'} 0"])
    args = ["corpus", "mix", "--spec", str(spec), "--out", str(tmp_path / "mixed")]
    return args, f"{spec}: line 2: factor 0 must be >= 1"


def _non_finite_weights_file(tmp_path):
    # the weights file is read before any model, so the model path is not read
    args, _ = _decode_args(tmp_path, "scorer m model=m.bin input=mt weight=1")
    weights = tmp_path / "weights.txt"
    write(weights, ["m\tnan"])
    return args + ["--weights", str(weights)], f"{weights}: line 1: bad weight 'nan'"


def _non_finite_config_weight(tmp_path):
    args, cfg = _decode_args(tmp_path, "scorer m model=m.bin input=mt weight=inf")
    return args, f"{cfg}: line 1: 'inf' is not a finite number"


def _repeated_weight_name(tmp_path):
    args, _ = _decode_args(tmp_path, "scorer m model=m.bin input=mt weight=1")
    weights = tmp_path / "weights.txt"
    write(weights, ["m\t1.0", "m\t2.0"])
    return args + ["--weights", str(weights)], f"{weights}: line 2: feature 'm' given twice"


def _config_field_without_equals(tmp_path):
    args, cfg = _decode_args(tmp_path, "scorer m model=m.bin input=mt weight")
    return args, f"{cfg}: line 1: field 'weight' is not key=value"


def _repeated_config_field(tmp_path):
    args, cfg = _decode_args(tmp_path, "scorer m model=m.bin input=mt weight=1 weight=2")
    return args, f"{cfg}: line 1: field 'weight' given twice"


def _repeated_train_config_key(tmp_path):
    args, _ = _all_training_pairs_overlong(tmp_path)
    cfg = tmp_path / "train.cfg"
    write(cfg, ["batch_size 2", "batch_size 3"])
    return args, f"{cfg}: line 2: key 'batch_size' given twice"


def _repeated_confusion_token(tmp_path):
    table = tmp_path / "confusion.txt"
    write(table, ["a b c", "a d"])
    write(tmp_path / "pe.txt", ["a b a"])
    args = [
        "synth", "corrupt",
        "--pe", str(tmp_path / "pe.txt"),
        "--out", str(tmp_path / "out"),
        "--substitution", "1.0",
        "--confusion", str(table),
    ]
    return args, f"{table}: line 2: token 'a' given twice"


def _arpa_repeated_ngram(tmp_path):
    args, model = _lm_xent_args(
        tmp_path,
        ["\\data\\", "ngram 1=2", "", "\\1-grams:", "-1.0\thaus", "-0.5\thaus",
         "-1.0\t</s>", "", "\\end\\"],
    )
    return args, f"{model}: line 6: n-gram 'haus' given twice"


def _arpa_count_disagrees(tmp_path):
    args, model = _lm_xent_args(
        tmp_path,
        ["\\data\\", "ngram 1=3", "", "\\1-grams:", "-1.0\thaus", "-1.0\t</s>", "",
         "\\end\\"],
    )
    return args, f"{model}: line 2: declares 3 1-grams, 2 listed"


def _unclosed_quote_in_pipeline_cmd(tmp_path):
    cfg = tmp_path / "pipe.cfg"
    write(cfg, ["stage a", 'cmd eval --metric ter --hyp "x.txt --ref x.txt', "end"])
    return ["run", "--config", str(cfg)], f"{cfg}: line 2: cmd: No closing quotation"


def _with_bad_byte(path, line):
    """Put a byte that is not UTF-8 at the end of the given line of path."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    return f"{path}: line {line}: not UTF-8"


def _non_utf8_hyp(tmp_path):
    args, hyp = _empty_hyp_line(tmp_path)
    write(hyp, ["ein haus", "am see", "der hund"])
    return args, _with_bad_byte(hyp, 2)


def _non_utf8_mix_spec(tmp_path):
    args, spec = _one_field_mix_line(tmp_path)
    write(spec, ["# parts", f"{tmp_path / 'a'} 2"])
    return args, _with_bad_byte(spec, 2)


def _non_utf8_arpa(tmp_path):
    args, model = _lm_xent_args(tmp_path, [])
    write_arpa(train_lm([("ein", "haus")], order=2), model)
    return args, _with_bad_byte(model, 2)


def _non_utf8_bpe_model(tmp_path):
    args, model = _bpe_model_without_header(tmp_path)
    write(model, [MODEL_HEADER, "#base: a b </w>", "a b"])
    return args, _with_bad_byte(model, 3)


def _non_utf8_train_config(tmp_path):
    args, _ = _all_training_pairs_overlong(tmp_path)
    return args, _with_bad_byte(tmp_path / "train.cfg", 1)


def _non_utf8_decoder_config(tmp_path):
    args, cfg = _decode_args(tmp_path, "scorer m model=m.bin input=mt weight=1")
    return args, _with_bad_byte(cfg, 1)


def _non_utf8_weights(tmp_path):
    args, _ = _decode_args(tmp_path, "scorer m model=m.bin input=mt weight=1")
    weights = tmp_path / "weights.txt"
    write(weights, ["m\t1.0"])
    return args + ["--weights", str(weights)], _with_bad_byte(weights, 1)


def _non_utf8_pipeline_config(tmp_path):
    args, _ = _unclosed_quote_in_pipeline_cmd(tmp_path)
    cfg = tmp_path / "pipe.cfg"
    write(cfg, ["stage a", "cmd eval --metric ter --hyp x.txt --ref x.txt", "end"])
    return args, _with_bad_byte(cfg, 2)


def _non_utf8_confusion_table(tmp_path):
    args, _ = _repeated_confusion_token(tmp_path)
    table = tmp_path / "confusion.txt"
    write(table, ["a b c", "b d"])
    return args, _with_bad_byte(table, 2)


def _scorers_disagree_on_target_vocabulary(tmp_path):
    # two models of one source vocabulary whose target vocabularies differ
    src_vocab = Vocab(["a", "b"])
    for name, tgt in (("mt", ["x", "y"]), ("src", ["y", "x"])):
        model = init_model(src_vocab, Vocab(tgt), embedding_dim=2, hidden_dim=2)
        ckpt.save(model, tmp_path / f"{name}.bin")
    args, cfg = _decode_args(tmp_path, f"scorer mt model={tmp_path / 'mt.bin'} input=mt weight=1")
    with cfg.open("a", encoding="utf-8") as fh:
        fh.write(f"scorer src model={tmp_path / 'src.bin'} input=mt weight=1\n")
    return args, (
        f"{cfg}: scorer 'src' (model {tmp_path / 'src.bin'}) has a different "
        "target vocabulary from scorer 'mt'"
    )


def _lm_train_args(tmp_path, lines):
    write(tmp_path / "in.txt", lines)
    return ["lm", "train", "--in", str(tmp_path / "in.txt"), "--out", str(tmp_path / "lm.arpa")]


def _lm_train_on_begin_marker(tmp_path):
    args = _lm_train_args(tmp_path, ["ein haus", "a <s> b"])
    return args, "sentence 2: '<s>' is the sentence-begin marker, not a word"


def _lm_train_on_end_marker(tmp_path):
    args = _lm_train_args(tmp_path, ["a </s> b", "ein haus"])
    return args, "sentence 1: '</s>' is the sentence-end marker, not a word"


def _arpa_logprob_case(logprob):
    def case(tmp_path):
        args, model = _lm_xent_args(
            tmp_path,
            ["\\data\\", "ngram 1=2", "", "\\1-grams:", f"{logprob}\thaus", "-0.5\t</s>",
             "", "\\end\\"],
        )
        return args, f"{model}: line 5: log10 probability '{logprob}' is not in [-323, 0]"

    case.__name__ = f"_arpa_logprob_{logprob}"
    return case


def _arpa_infinite_backoff(tmp_path):
    args, model = _lm_xent_args(
        tmp_path,
        ["\\data\\", "ngram 1=2", "ngram 2=1", "", "\\1-grams:", "-1.0\thaus\tinf",
         "-0.5\t</s>", "", "\\2-grams:", "-0.2\thaus </s>", "", "\\end\\"],
    )
    return args, f"{model}: line 6: log10 backoff weight 'inf' is not in [-323, 308]"


def _deps_line_in_pipeline_config(tmp_path):
    cfg = tmp_path / "pipe.cfg"
    write(cfg, ["stage a", "deps b", "cmd eval --metric ter --hyp x.txt --ref x.txt", "end"])
    return ["run", "--config", str(cfg)], f"{cfg}: line 2: unknown stage directive 'deps'"


def _workspace_line_in_pipeline_config(tmp_path):
    cfg = tmp_path / "pipe.cfg"
    write(cfg, ["workspace ws", "stage a", "cmd eval --metric ter --hyp x.txt --ref x.txt", "end"])
    return ["run", "--config", str(cfg)], f"{cfg}: line 1: unknown directive 'workspace'"


def _sentences_into_missing_directory(tmp_path):
    write(tmp_path / "in.txt", ["ein haus"])
    out = tmp_path / "nodir" / "y.txt"
    args = ["bpe", "revert", "--in", str(tmp_path / "in.txt"), "--out", str(out)]
    return args, f"{out}: No such file or directory"


def _triplets_into_missing_directory(tmp_path):
    write(tmp_path / "pe.txt", ["ein haus"])
    out = tmp_path / "nodir" / "p"
    args = ["synth", "corrupt", "--pe", str(tmp_path / "pe.txt"), "--out", str(out)]
    return args, f"{out}.src: No such file or directory"


def _arpa_into_missing_directory(tmp_path):
    write(tmp_path / "in.txt", ["ein haus am see"])
    out = tmp_path / "nodir" / "x.arpa"
    args = ["lm", "train", "--in", str(tmp_path / "in.txt"), "--out", str(out)]
    return args, f"{out}: No such file or directory"


@pytest.mark.parametrize(
    "make_case",
    [
        _empty_hyp_line,
        _misaligned_pool,
        _bad_scorer_input,
        _missing_model,
        _one_field_mix_line,
        _missing_mix_corpus,
        _missing_select_pool,
        _empty_select_pool,
        _empty_select_reference,
        _select_pool_outside_reference,
        _arpa_without_sections,
        _arpa_non_numeric_logprob,
        _bpe_model_without_header,
        _short_report_system,
        _short_report_mt,
        _bpe_bad_merge_line,
        _arpa_malformed_ngram_line,
        _arpa_bigram_in_unigram_section,
        _all_training_pairs_overlong,
        _nonpositive_mix_factor,
        _mix_spec_without_corpora,
        _non_finite_weights_file,
        _non_finite_config_weight,
        _repeated_weight_name,
        _config_field_without_equals,
        _repeated_config_field,
        _repeated_train_config_key,
        _repeated_confusion_token,
        _arpa_repeated_ngram,
        _arpa_count_disagrees,
        _unclosed_quote_in_pipeline_cmd,
        _non_utf8_hyp,
        _non_utf8_mix_spec,
        _non_utf8_arpa,
        _non_utf8_bpe_model,
        _non_utf8_train_config,
        _non_utf8_decoder_config,
        _non_utf8_weights,
        _non_utf8_pipeline_config,
        _non_utf8_confusion_table,
        _scorers_disagree_on_target_vocabulary,
        _lm_train_on_begin_marker,
        _lm_train_on_end_marker,
        _arpa_logprob_case("-inf"),
        _arpa_logprob_case("nan"),
        _arpa_logprob_case("2.5"),
        _arpa_infinite_backoff,
        _deps_line_in_pipeline_config,
        _workspace_line_in_pipeline_config,
        _sentences_into_missing_directory,
        _triplets_into_missing_directory,
        _arpa_into_missing_directory,
        _repeated_mix_corpus,
        _bpe_repeated_merge,
    ],
)
def test_input_error_is_one_error_line(runner, tmp_path, make_case):
    """A named input error ends the command with `Error: <file>: ...` and
    status 1, not a traceback."""
    args, named = make_case(tmp_path)
    result = runner.invoke(cli, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error:")
    assert str(named) in result.output


def _empty_input_commands(tmp_path, model_path):
    """Per command: arguments that read the empty file `empty.txt` or the
    empty triplet prefix `empty`, with every other input valid."""
    empty, empty_prefix, good = tmp_path / "empty.txt", tmp_path / "empty", tmp_path / "good.txt"
    empty.write_text("")
    write_triplets(empty_prefix, [])
    write(good, ["ein haus"])
    write_triplets(tmp_path / "good", [Triplet(("s",), ("a",), ("a",))])
    arpa, bpe_model = tmp_path / "lm.arpa", tmp_path / "bpe.model"
    write_arpa(train_lm([("ein", "haus")], order=2), arpa)
    save_model(learn_bpe([("ein", "haus")], 2), bpe_model)
    spec = tmp_path / "mix.txt"
    write(spec, [f"{empty_prefix} 1"])
    train_cfg = tmp_path / "train.cfg"
    write(train_cfg, ["embedding_dim 4", "hidden_dim 4"])
    decoder_cfg = tmp_path / "decoder.cfg"
    write(decoder_cfg, [f"scorer mt model={model_path} input=mt weight=1.0"])
    out = str(tmp_path / "out")
    return {
        "corpus filter-wellformed": ["corpus", "filter-wellformed", "--in", empty, "--out", out],
        "corpus mix": ["corpus", "mix", "--spec", spec, "--out", out],
        "bpe learn": ["bpe", "learn", "--in", empty, "--merges", "2", "--out", out],
        "bpe apply": ["bpe", "apply", "--model", bpe_model, "--in", empty, "--out", out],
        "bpe revert": ["bpe", "revert", "--in", empty, "--out", out],
        "eval": ["eval", "--metric", "ter", "--hyp", empty, "--ref", good],
        "lm train": ["lm", "train", "--in", empty, "--out", out],
        "lm xent": ["lm", "xent", "--model", arpa, "--in", empty],
        "select xent": [
            "select", "xent", "--in-domain", arpa, "--out-domain", arpa,
            "--corpus", empty, "--keep", "1",
        ],
        "select ter": [
            "select", "ter", "--pool", empty_prefix, "--reference", tmp_path / "good",
            "--n", "1", "--out", out, "--report", tmp_path / "stats.txt",
        ],
        "nmt train": [
            "nmt", "train", "--src", empty, "--tgt", good, "--config", train_cfg, "--out", out,
        ],
        "decode": ["decode", "--config", decoder_cfg, "--mt", empty, "--out", out],
        "tune": ["tune", "--dev", empty_prefix, "--config", decoder_cfg, "--out", out],
        "report": ["report", "--ref", empty, "--mt", good],
        "synth corrupt": ["synth", "corrupt", "--pe", empty, "--out", out],
        "synth roundtrip": [
            "synth", "roundtrip", "--mono", empty, "--reverse", model_path,
            "--forward", model_path, "--out", out,
        ],
    }


_TRIPLET_COMMANDS = {"corpus mix", "select ter", "tune"}


@pytest.mark.parametrize(
    "command",
    [
        "corpus filter-wellformed", "corpus mix", "bpe learn", "bpe apply", "bpe revert",
        "eval", "lm train", "lm xent", "select xent", "select ter", "nmt train", "decode",
        "tune", "report", "synth corrupt", "synth roundtrip",
    ],
)
def test_empty_input_file_is_one_error_line(runner, tmp_path, copy_checkpoint, command):
    """Every command that reads a sentence or triplet file rejects an empty
    one with `Error: <file>: no sentences` and status 1."""
    model_path, _, _ = copy_checkpoint
    args = _empty_input_commands(tmp_path, model_path)[command]
    result = runner.invoke(cli, [str(arg) for arg in args])
    named = tmp_path / ("empty.src" if command in _TRIPLET_COMMANDS else "empty.txt")
    assert result.output == f"Error: {named}: no sentences\n"
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)


def _bounded_option_commands(tmp_path, model_path, text):
    """Per command: its arguments with the checked options left out. They
    are valid but for two inputs, `eval`'s empty --hyp and `synth corrupt`'s
    malformed --confusion table, so an option checked after reading input
    would fail there with an input error (status 1)."""
    cfg = tmp_path / "decoder.cfg"
    write(cfg, [f"scorer mt model={model_path} input=mt weight=1.0"])
    (tmp_path / "empty.txt").write_text("")
    write(tmp_path / "confusion.txt", ["haus"])
    sentences = [tuple(line.split()) for line in text.read_text().splitlines()]
    write_triplets(tmp_path / "dev", [Triplet(src=s, mt=s, pe=s) for s in sentences])
    dev = str(tmp_path / "dev")
    return {
        "decode": [
            "decode", "--config", str(cfg), "--mt", str(text),
            "--out", str(tmp_path / "nbest.txt"),
        ],
        "tune": ["tune", "--dev", dev, "--config", str(cfg), "--out", str(tmp_path / "w.txt")],
        "bpe learn": ["bpe", "learn", "--in", str(text), "--out", str(tmp_path / "bpe.model")],
        "select ter": [
            "select", "ter", "--pool", dev, "--reference", dev,
            "--out", str(tmp_path / "picked"), "--report", str(tmp_path / "stats.txt"),
        ],
        "nmt grad-check": ["nmt", "grad-check"],
        "synth corrupt": [
            "synth", "corrupt", "--pe", str(text), "--out", str(tmp_path / "noisy"),
            "--confusion", str(tmp_path / "confusion.txt"),
        ],
        "eval": ["eval", "--hyp", str(tmp_path / "empty.txt"), "--ref", str(text)],
        "lm train": ["lm", "train", "--in", str(text), "--out", str(tmp_path / "lm.arpa")],
        "select xent": [
            "select", "xent", "--in-domain", str(text), "--out-domain", str(text),
            "--corpus", str(text),
        ],
        "synth roundtrip": [
            "synth", "roundtrip", "--mono", str(text), "--reverse", str(model_path),
            "--forward", str(model_path), "--out", str(tmp_path / "rt"),
        ],
    }


# a new row goes at the end or into a deleted row's place: pytest numbers the
# rows by position in their ids
@pytest.mark.parametrize(
    "command, options, message",
    [
        ("decode", ["--nbest", "0"], "'--nbest'"),
        ("decode", ["--beam", "0"], "'--beam'"),
        ("tune", ["--iterations", "0"], "'--iterations'"),
        ("tune", ["--beam", "0"], "'--beam'"),
        ("tune", ["--inner-epochs", "0"], "'--inner-epochs'"),
        ("eval", ["--metric", "bleu", "--per-sentence"], "--per-sentence requires --metric ter"),
        ("bpe learn", ["--merges", "-3"], "'--merges'"),
        ("select ter", ["--n", "0"], "'--n'"),
        ("select ter", ["--n", "1", "--traversal-cap", "0"], "'--traversal-cap'"),
        ("select ter", ["--n", "2", "--traversal-cap", "1"], "'--traversal-cap': 1 is below --n 2"),
        ("decode", ["--nbest", "3", "--beam", "1"], "'--beam'"),
        ("select ter", ["--n", "1", "--outlier-margin", "-0.1"], "'--outlier-margin'"),
        ("synth corrupt", ["--substitution", "2"], "'--substitution'"),
        ("synth corrupt", ["--deletion", "-0.1"], "'--deletion'"),
        ("synth corrupt", ["--insertion", "1.5"], "'--insertion'"),
        ("synth corrupt", ["--swap", "-1"], "'--swap'"),
        ("synth corrupt", ["--seed", "-1"], "'--seed'"),
        ("lm train", ["--sample-tokens", "4", "--sample-seed", "-1"], "'--sample-seed'"),
        ("select xent", ["--keep", "abc"], "'abc'"),
        ("select xent", ["--keep", "1.5"], "'1.5'"),
        ("select xent", ["--keep", "0.0"], "'0.0'"),
        ("lm train", ["--sample-tokens", "-5"], "'--sample-tokens'"),
        ("lm train", ["--order", "0"], "'--order'"),
        ("select xent", ["--keep", "0"], "'0'"),
        ("synth corrupt", ["--substitution", "nan"], "'--substitution'"),
        ("select ter", ["--n", "1", "--outlier-margin", "nan"], "'--outlier-margin'"),
        ("synth corrupt", ["--deletion", "nan"], "'--deletion'"),
        ("synth corrupt", ["--insertion", "inf"], "'--insertion'"),
        ("synth corrupt", ["--swap", "nan"], "'--swap'"),
        ("synth corrupt", ["--insertion", "nan"], "'--insertion'"),
        ("select ter", ["--n", "200"], "Invalid value for '--traversal-cap': 100 is below --n 200"),
    ],
)
def test_out_of_range_option_is_usage_error(
    runner, tmp_path, copy_checkpoint, command, options, message
):
    """An out-of-range option value, or options that do not go together,
    is a usage error (status 2) naming the option, before any input is
    read, not a traceback."""
    model_path, text, _ = copy_checkpoint
    args = _bounded_option_commands(tmp_path, model_path, text)[command] + options
    result = runner.invoke(cli, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output and message in result.output


@pytest.mark.parametrize(
    "command, options",
    [
        ("select ter", ["--no-normalize"]),
        ("nmt grad-check", ["--embedding-dim", "8"]),
        ("nmt grad-check", ["--hidden-dim", "6"]),
        ("nmt grad-check", ["--seed", "0"]),
        ("nmt grad-check", ["--tolerance", "0.001"]),
        ("tune", ["--mira-c", "0.01"]),
        ("tune", ["--seed", "0"]),
    ],
)
def test_fixed_setting_is_no_option(runner, command, options):
    """These settings are constants: even the value they are fixed at is
    an unknown option (status 2)."""
    result = runner.invoke(cli, command.split() + options)
    assert result.exit_code == 2, result.output
    assert f"Error: No such option '{options[0]}'" in result.output


def _command_options(group, prefix=()):
    """(command, option) for every option of every command under `group`,
    with the option's type."""
    for name, command in group.commands.items():
        path = (*prefix, name)
        if isinstance(command, click.Group):
            yield from _command_options(command, path)
            continue
        for param in command.params:
            if isinstance(param, click.Option):
                yield " ".join(path), param.opts[0], param.type


def _readme_range_table():
    """(command, option) pairs named by README's numeric-range table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Numeric option ranges\n", 1)[1].split("\n#", 1)[0]
    pairs = set()
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) < 4 or not cells[1].strip().startswith("`"):
            continue  # prose, the header or the rule under it
        commands = re.findall(r"`([^`]+)`", cells[1])
        options = re.findall(r"`([^`]+)`", cells[2])
        pairs.update((c, o) for c in commands for o in options)
    return pairs


def test_readme_range_table_matches_the_cli():
    """Every integer- or number-range option is in README's table, and the
    table names no option that a command lacks."""
    table = _readme_range_table()
    options = {(c, o): t for c, o, t in _command_options(cli)}
    ranged = {k for k, t in options.items() if isinstance(t, (click.IntRange, click.FloatRange))}
    assert sorted(ranged - table) == []
    assert sorted(table - options.keys()) == []
