"""Synthetic data generation and the checksum-gated stage runner."""

import json

import numpy as np
import pytest

from apeforge.corpus import ParseError, Triplet, Vocab
from apeforge.metrics import corpus_ter, ter
from apeforge.nmt import TrainConfig, init_model, train
from apeforge.pipeline import (
    MANIFEST_NAME,
    NoiseSpec,
    PipelineConfigError,
    PipelineError,
    Stage,
    cipher,
    cipher_token,
    corrupt,
    parse_config,
    roundtrip_generate,
    run,
    synth_corrupt,
)


class TestCipher:
    def test_reverses_characters(self):
        assert cipher_token("haus") == "suah"
        assert cipher_token("ab") == "ba"

    def test_single_character_fixed_point(self):
        assert cipher_token("a") == "a"

    def test_involution(self):
        rng = np.random.default_rng(0)
        letters = "abcdefghij"
        for _ in range(200):
            tok = "".join(rng.choice(list(letters), size=rng.integers(1, 9)))
            assert cipher_token(cipher_token(tok)) == tok

    def test_sentence_mapped_per_token(self):
        assert cipher(("haus", "am", "see")) == ("suah", "ma", "ees")
        assert cipher(()) == ()


class TestNoiseSpec:
    def test_defaults_are_silent(self):
        spec = NoiseSpec()
        assert (spec.substitution, spec.deletion, spec.insertion, spec.swap) == (0.0,) * 4

    @pytest.mark.parametrize("field", ["substitution", "deletion", "insertion", "swap"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_probability_bounds(self, field, bad):
        kwargs = {field: bad}
        if field == "substitution":
            kwargs["confusion"] = {"a": ("b",)}
        if field == "insertion":
            kwargs["fillers"] = ("x",)
        with pytest.raises(ValueError):
            NoiseSpec(**kwargs)

    def test_substitution_requires_confusion(self):
        with pytest.raises(ValueError):
            NoiseSpec(substitution=0.1)
        NoiseSpec(substitution=0.1, confusion={"a": ("b",)})

    def test_insertion_requires_fillers(self):
        with pytest.raises(ValueError):
            NoiseSpec(insertion=0.1)
        NoiseSpec(insertion=0.1, fillers=("um",))


class TestCorrupt:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(0)
        sent = ("the", "cat", "sat")
        assert corrupt(sent, NoiseSpec(), rng) == sent

    def test_full_deletion_keeps_last_survivor(self):
        rng = np.random.default_rng(0)
        out = corrupt(("a", "b", "c"), NoiseSpec(deletion=1.0), rng)
        assert out == ("c",)

    def test_never_empties_single_token(self):
        rng = np.random.default_rng(0)
        assert corrupt(("only",), NoiseSpec(deletion=1.0), rng) == ("only",)

    def test_never_empty_under_heavy_noise(self):
        spec = NoiseSpec(deletion=0.9, swap=0.5)
        rng = np.random.default_rng(3)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(500):
            n = int(rng.integers(1, 6))
            sent = tuple(alphabet[int(rng.integers(4))] for _ in range(n))
            assert len(corrupt(sent, spec, rng)) >= 1

    def test_full_insertion_doubles_length(self):
        rng = np.random.default_rng(1)
        sent = ("a", "b", "c")
        out = corrupt(sent, NoiseSpec(insertion=1.0, fillers=("F",)), rng)
        assert len(out) == 6
        # one filler before every original token, originals untouched
        assert out == ("F", "a", "F", "b", "F", "c")

    def test_substitution_rate_matches_corpus_ter(self):
        # substitutes never occur in the reference, so every one scores
        # exactly one substitution and the corpus TER equals the noise rate
        vocab = [f"w{i}" for i in range(10)]
        confusion = {w: (f"x{i}",) for i, w in enumerate(vocab)}
        spec = NoiseSpec(substitution=0.10, confusion=confusion)
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(1000):
            pe = tuple(vocab[int(rng.integers(10))] for _ in range(10))
            pairs.append((corrupt(pe, spec, rng), pe))
        score = corpus_ter(pairs)
        assert abs(score - 10.0) <= 1.0

    def test_swap_noise_scores_as_shifts(self):
        pe = tuple(f"w{i}" for i in range(10))
        spec = NoiseSpec(swap=0.3)
        rng = np.random.default_rng(5)
        shifts = 0
        others = 0
        changed = 0
        for _ in range(300):
            mt = corrupt(pe, spec, rng)
            a = ter(mt, pe)
            shifts += a.shifts
            others += a.insertions + a.deletions + a.substitutions
            changed += mt != pe
        assert changed > 200
        assert shifts > 0
        assert shifts >= others

    def test_deterministic_given_seed(self):
        spec = NoiseSpec(deletion=0.3, swap=0.3)
        sent = tuple("abcdefgh")
        one = [corrupt(sent, spec, np.random.default_rng(9)) for _ in range(5)]
        two = [corrupt(sent, spec, np.random.default_rng(9)) for _ in range(5)]
        assert one == two


class TestSynthCorrupt:
    def test_silent_spec_yields_exact_copies(self):
        pe_corpus = [("ein", "haus"), ("am", "see", "gelegen")]
        triplets = synth_corrupt(pe_corpus, NoiseSpec(), seed=0)
        assert [t.pe for t in triplets] == [("ein", "haus"), ("am", "see", "gelegen")]
        assert all(t.mt == t.pe for t in triplets)
        assert triplets[0].src == ("nie", "suah")
        assert corpus_ter([(t.mt, t.pe) for t in triplets]) == 0.0

    def test_src_is_cipher_of_reference(self):
        spec = NoiseSpec(deletion=0.5)
        triplets = synth_corrupt([("haus", "am", "see")], spec, seed=1)
        assert triplets[0].src == cipher(("haus", "am", "see"))

    def test_same_seed_reproduces(self):
        rng = np.random.default_rng(2)
        corpus = [
            tuple(f"w{int(rng.integers(20))}" for _ in range(8)) for _ in range(50)
        ]
        spec = NoiseSpec(deletion=0.2, swap=0.2)
        assert synth_corrupt(corpus, spec, seed=7) == synth_corrupt(
            corpus, spec, seed=7
        )

    def test_different_seed_differs(self):
        corpus = [tuple(f"w{i % 7}" for i in range(10))] * 40
        spec = NoiseSpec(deletion=0.5, swap=0.5)
        a = synth_corrupt(corpus, spec, seed=1)
        b = synth_corrupt(corpus, spec, seed=2)
        assert [t.mt for t in a] != [t.mt for t in b]

    def test_returns_triplets(self):
        out = synth_corrupt([("a",)], NoiseSpec(), seed=0)
        assert isinstance(out[0], Triplet)


def _toy_copy_setup(seed, iterations):
    rng = np.random.default_rng(7)
    alphabet = [f"t{i}" for i in range(12)]
    vocab = Vocab(alphabet)
    pairs = []
    for _ in range(30):
        n = int(rng.integers(2, 6))
        seq = [vocab.id(alphabet[int(rng.integers(0, 12))]) for _ in range(n)]
        pairs.append((seq, list(seq)))
    model = init_model(vocab, vocab, embedding_dim=16, hidden_dim=16, seed=seed)
    if iterations:  # a TrainConfig takes max_iterations >= 1
        cfg = TrainConfig(
            batch_size=6,
            epochs=60,
            shuffle_seed=2,
            checkpoint_every=10**9,
            max_iterations=iterations,
        )
        model = train(model, pairs, cfg).model
    mono = [vocab.words(s) for s, _ in pairs[:20]]
    return vocab, mono, model


class TestRoundtripGenerate:
    def test_perfect_copy_models_reconstruct_reference(self, copy_task):
        vocab, pairs, result, _ = copy_task
        mono = [vocab.words(src) for src, _ in pairs[:25]]
        out = roundtrip_generate(mono, result.model, result.model)
        assert out.dropped == 0
        assert len(out.triplets) == 25
        assert all(t.mt == t.pe == t.src for t in out.triplets)
        assert corpus_ter([(t.mt, t.pe) for t in out.triplets]) == 0.0

    def test_undertrained_models_leave_noise(self):
        _, mono, model = _toy_copy_setup(seed=3, iterations=150)
        out = roundtrip_generate(mono, model, model)
        assert out.triplets, "undertrained decode should still finish"
        pool_ter = corpus_ter([(t.mt, t.pe) for t in out.triplets])
        assert pool_ter > 1.0

    def test_truncated_decodes_are_dropped(self):
        vocab, mono, model = _toy_copy_setup(seed=3, iterations=0)
        model.params["out_b"][Vocab.EOS] = -1e9
        out = roundtrip_generate(mono[:4], model, model)
        assert out.triplets == []
        assert out.dropped == 4

    def test_triplet_pe_side_is_verbatim_input(self):
        _, mono, model = _toy_copy_setup(seed=3, iterations=150)
        out = roundtrip_generate(mono, model, model)
        kept_pe = {t.pe for t in out.triplets}
        assert kept_pe <= {tuple(s) for s in mono}


def _write_stage(name, path, content, inputs=()):
    def action(ws):
        (ws / path).write_text(content)

    return Stage(name=name, action=action, inputs=tuple(inputs), outputs=(path,))


def _concat_stage(name, src, dst):
    def action(ws):
        (ws / dst).write_text((ws / src).read_text() + f"+{name}")

    return Stage(name=name, action=action, inputs=(src,), outputs=(dst,))


class TestParseConfig:
    def test_stage_block_builds_action_from_cmd(self):
        seen = []
        stages = parse_config(
            "stage a  # first\n"
            "in x.txt\n"
            "out y.txt z.txt\n"
            "cmd apeforge eval --hyp 'a b.txt'\n"
            "end\n",
            "pipe.cfg",
            lambda args: seen.append(args) or len(seen),
        )
        assert seen == [["eval", "--hyp", "a b.txt"]]
        assert stages == [Stage("a", 1, inputs=("x.txt",), outputs=("y.txt", "z.txt"))]

    def test_unclosed_stage_rejected(self):
        with pytest.raises(ParseError, match="pipe.cfg: stage 'a' not closed"):
            parse_config("stage a\ncmd eval\n", "pipe.cfg", lambda args: None)

    def test_unclosed_quote_in_cmd_names_the_line(self):
        with pytest.raises(
            ParseError, match=r"^pipe.cfg: line 2: cmd: No closing quotation$"
        ):
            parse_config(
                'stage a\ncmd eval --hyp "x.txt\nend\n', "pipe.cfg", lambda args: None
            )

    def test_repeated_stage_name_names_the_line(self):
        text = "stage a\nout x.txt\ncmd eval\nend\n\nstage a\nout y.txt\ncmd eval\nend\n"
        with pytest.raises(ParseError, match=r"^pipe.cfg: line 6: duplicate stage name 'a'$"):
            parse_config(text, "pipe.cfg", lambda args: None)

    @pytest.mark.parametrize(
        "text, lineno, stages",
        [
            ("stage a\nout x.txt\ncmd eval\nend\nstage b\nout y.txt x.txt\n", 6, "'a' and 'b'"),
            ("stage a\nout x.txt\nout x.txt\n", 3, "'a' and 'a'"),
        ],
        ids=["two stages", "one stage"],
    )
    def test_repeated_output_names_the_line(self, text, lineno, stages):
        message = f"^pipe.cfg: line {lineno}: output 'x.txt' produced by both {stages}$"
        with pytest.raises(ParseError, match=message):
            parse_config(text + "cmd eval\nend\n", "pipe.cfg", lambda args: None)


class TestStageGraph:
    def test_duplicate_stage_name_rejected(self, tmp_path):
        stages = [_write_stage("a", "x.txt", "1"), _write_stage("a", "y.txt", "2")]
        with pytest.raises(PipelineConfigError, match="duplicate stage name"):
            run(tmp_path, stages)

    def test_duplicate_output_rejected(self, tmp_path):
        stages = [_write_stage("a", "x.txt", "1"), _write_stage("b", "x.txt", "2")]
        with pytest.raises(PipelineConfigError, match="produced by both"):
            run(tmp_path, stages)

    def test_cycle_rejected(self, tmp_path):
        a = _concat_stage("a", "y.txt", "x.txt")
        b = _concat_stage("b", "x.txt", "y.txt")
        with pytest.raises(PipelineConfigError, match="cycle among: a, b"):
            run(tmp_path, [a, b])

    def test_cycle_error_names_only_the_cycle(self, tmp_path):
        a = _concat_stage("a", "y.txt", "x.txt")
        b = _concat_stage("b", "x.txt", "y.txt")
        c = _concat_stage("c", "x.txt", "z.txt")
        with pytest.raises(PipelineConfigError) as exc:
            run(tmp_path, [a, b, c])
        assert str(exc.value) == "stage cycle among: a, b"

    def test_file_dependency_orders_stages(self, tmp_path):
        order = []

        def tracked(stage):
            inner = stage.action

            def action(ws):
                order.append(stage.name)
                inner(ws)

            return Stage(
                name=stage.name,
                action=action,
                inputs=stage.inputs,
                outputs=stage.outputs,
            )

        consumer = tracked(_concat_stage("late", "a.txt", "b.txt"))
        producer = tracked(_write_stage("early", "a.txt", "seed"))
        report = run(tmp_path, [consumer, producer])
        assert order == ["early", "late"]
        assert report.executed == ["early", "late"]
        assert (tmp_path / "b.txt").read_text() == "seed+late"

    def test_declaration_order_breaks_ties(self, tmp_path):
        order = []
        stages = [
            Stage(name=n, action=lambda ws, n=n: order.append(n))
            for n in ("z", "m", "a")
        ]
        run(tmp_path, stages)
        assert order == ["z", "m", "a"]


class TestStageExecution:
    def test_empty_stage_list_writes_empty_manifest(self, tmp_path):
        report = run(tmp_path, [])
        assert report.executed == [] and report.skipped == []
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest == {"stages": {}}

    @pytest.mark.parametrize("text", ["[1", "[]", '{"stages": []}'])
    def test_malformed_manifest_rejected_before_any_stage(self, tmp_path, text):
        (tmp_path / MANIFEST_NAME).write_text(text)
        stage = _write_stage("w", "made.txt", "content")
        with pytest.raises(PipelineConfigError, match=MANIFEST_NAME):
            run(tmp_path, [stage])
        assert not (tmp_path / "made.txt").exists()

    def test_missing_input_names_stage_and_file(self, tmp_path):
        stage = _concat_stage("needs", "gone.txt", "out.txt")
        with pytest.raises(PipelineError, match="'needs': missing input 'gone.txt'"):
            run(tmp_path, [stage])

    def test_missing_output_detected(self, tmp_path):
        stage = Stage(name="lazy", action=lambda ws: None, outputs=("never.txt",))
        with pytest.raises(PipelineError, match="'lazy' did not produce output"):
            run(tmp_path, [stage])

    def test_failure_names_stage_and_keeps_prior_work(self, tmp_path):
        def boom(ws):
            raise RuntimeError("disk on fire")

        ok = _write_stage("ok", "a.txt", "done")
        bad = Stage(name="bad", action=boom, inputs=("a.txt",))
        with pytest.raises(PipelineError, match="'bad' failed: disk on fire"):
            run(tmp_path, [ok, bad])
        assert (tmp_path / "a.txt").read_text() == "done"
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert "ok" in manifest["stages"]
        assert "bad" not in manifest["stages"]

    def test_rerun_skips_unchanged_stages(self, tmp_path):
        calls = []

        def action(ws):
            calls.append(1)
            (ws / "out.txt").write_text("stable")

        stage = Stage(name="s", action=action, outputs=("out.txt",))
        first = run(tmp_path, [stage])
        second = run(tmp_path, [stage])
        assert first.executed == ["s"] and first.skipped == []
        assert second.executed == [] and second.skipped == ["s"]
        assert calls == [1]

    def test_changed_input_cascades_downstream(self, tmp_path):
        (tmp_path / "in.txt").write_text("v1")
        a = _concat_stage("a", "in.txt", "mid.txt")
        b = _concat_stage("b", "mid.txt", "out.txt")
        run(tmp_path, [a, b])
        assert (tmp_path / "out.txt").read_text() == "v1+a+b"

        (tmp_path / "in.txt").write_text("v2")
        report = run(tmp_path, [a, b])
        assert report.executed == ["a", "b"]
        assert (tmp_path / "out.txt").read_text() == "v2+a+b"

    def test_tampered_output_triggers_rebuild_only_there(self, tmp_path):
        (tmp_path / "in.txt").write_text("v1")
        a = _concat_stage("a", "in.txt", "mid.txt")
        b = _concat_stage("b", "mid.txt", "out.txt")
        run(tmp_path, [a, b])

        (tmp_path / "mid.txt").write_text("corrupted")
        report = run(tmp_path, [a, b])
        # the rebuilt intermediate is byte-identical, so b stays clean
        assert report.executed == ["a"]
        assert report.skipped == ["b"]
        assert (tmp_path / "mid.txt").read_text() == "v1+a"

    def test_deleted_output_triggers_rebuild(self, tmp_path):
        stage = _write_stage("w", "made.txt", "content")
        run(tmp_path, [stage])
        (tmp_path / "made.txt").unlink()
        report = run(tmp_path, [stage])
        assert report.executed == ["w"]
        assert (tmp_path / "made.txt").read_text() == "content"

    def test_manifest_records_checksums_per_file(self, tmp_path):
        (tmp_path / "in.txt").write_text("payload")
        stage = _concat_stage("s", "in.txt", "out.txt")
        report = run(tmp_path, [stage])
        record = report.manifest["stages"]["s"]
        assert set(record) == {"inputs", "outputs"}
        assert set(record["inputs"]) == {"in.txt"}
        assert set(record["outputs"]) == {"out.txt"}
        digest = record["inputs"]["in.txt"]
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_report_manifest_matches_disk(self, tmp_path):
        stage = _write_stage("w", "f.txt", "x")
        report = run(tmp_path, [stage])
        on_disk = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert report.manifest == on_disk


class TestManifestStability:
    def _stages(self):
        return [
            _write_stage("seed", "a.txt", "alpha"),
            _concat_stage("grow", "a.txt", "b.txt"),
        ]

    def test_identical_runs_produce_identical_manifests(self, tmp_path):
        ws1 = tmp_path / "one"
        ws2 = tmp_path / "two"
        run(ws1, self._stages())
        run(ws2, self._stages())
        assert (ws1 / MANIFEST_NAME).read_bytes() == (ws2 / MANIFEST_NAME).read_bytes()

    def test_rerun_leaves_manifest_bytes_unchanged(self, tmp_path):
        run(tmp_path, self._stages())
        before = (tmp_path / MANIFEST_NAME).read_bytes()
        report = run(tmp_path, self._stages())
        assert report.executed == []
        assert (tmp_path / MANIFEST_NAME).read_bytes() == before
