"""The console script run as a user runs it: `python -m apeforge.cli` in a
fresh interpreter, for what the in-process runner cannot show (the exact
stderr of a whole process, and independence from the string-hash seed)."""

import numpy as np
import pytest

from helpers import run_apeforge


def test_result_on_stdout_and_exit_0(tmp_path):
    (tmp_path / "hyp.txt").write_text("ein haus\n", encoding="utf-8")
    status, out, err = run_apeforge(
        ["eval", "--metric", "ter", "--hyp", "hyp.txt", "--ref", "hyp.txt"], tmp_path
    )
    assert "Traceback" not in err
    assert (status, out, err) == (0, "0.00\n", "")


def test_input_error_is_the_only_stderr_line(tmp_path):
    """A form feed inside a training-config comment does not start a line,
    so the error names line 2, with the path as given."""
    (tmp_path / "form-feed.src").write_text("a b c\nb c\n", encoding="utf-8")
    (tmp_path / "form-feed.tgt").write_text("x y z\ny z\n", encoding="utf-8")
    (tmp_path / "form-feed.cfg").write_text(
        "batch_size 2 # note\fmore\nbogus 1\n", encoding="utf-8"
    )
    status, _, err = run_apeforge(
        ["nmt", "train", "--src", "form-feed.src", "--tgt", "form-feed.tgt",
         "--config", "form-feed.cfg", "--out", "form-feed"],
        tmp_path,
    )
    assert "Traceback" not in err
    assert (status, err) == (1, "Error: form-feed.cfg: line 2: unknown key 'bogus'\n")


@pytest.mark.parametrize(
    "command, option, rest",
    [
        (
            "select ter",
            "--outlier-margin",
            ["--pool", "pool", "--reference", "ref", "--n", "1", "--out", "picked",
             "--report", "stats.txt"],
        ),
        ("synth corrupt", "--swap", ["--pe", "empty.txt", "--out", "noisy"]),
    ],
    ids=["select ter", "synth corrupt"],
)
def test_nan_option_is_one_usage_error(tmp_path, command, option, rest):
    """`nan` is rejected before any input is read: the text file is empty
    and the corpora do not exist, so reading either would be another
    error."""
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    status, out, err = run_apeforge(command.split() + rest + [option, "nan"], tmp_path)
    assert "Traceback" not in err
    assert (status, out) == (2, "")
    assert err == (
        f"Usage: apeforge {command} [OPTIONS]\n"
        f"Try 'apeforge {command} --help' for help.\n\n"
        f"Error: Invalid value for '{option}': 'nan' is not a number.\n"
    )


_HASH_SEED_PIPELINE = """\
stage corrupt
in pe.txt confusion.txt
out noisy.src noisy.mt noisy.pe
cmd synth corrupt --pe pe.txt --out noisy --seed 5 --substitution 0.2 --swap 0.1 --confusion confusion.txt
end

stage bpe-learn
in noisy.pe
out bpe.model
cmd bpe learn --in noisy.pe --merges 20 --out bpe.model
end

stage bpe-apply
in bpe.model noisy.mt
out mt.bpe
cmd bpe apply --model bpe.model --in noisy.mt --out mt.bpe
end

stage lm-in
in noisy.pe
out in.arpa
cmd lm train --in noisy.pe --out in.arpa
end

stage lm-out
in mono.txt
out out.arpa
cmd lm train --in mono.txt --out out.arpa --sample-tokens 600
end

stage select-xent
in in.arpa out.arpa mono.txt
out mono.sel
cmd select xent --in-domain in.arpa --out-domain out.arpa --corpus mono.txt --keep 0.5 --out mono.sel
end

stage select-ter
in noisy.src noisy.mt noisy.pe
out picked.src picked.mt picked.pe stats.txt
cmd select ter --pool noisy --reference noisy --n 1 --out picked --report stats.txt
end

stage train
in picked.mt picked.pe train.cfg
out model/model.bin
cmd nmt train --src picked.mt --tgt picked.pe --config train.cfg --out model
end

stage decode
in noisy.mt model/model.bin decoder.cfg
out nbest.txt best.txt
cmd decode --config decoder.cfg --mt noisy.mt --nbest 2 --beam 3 --out nbest.txt --best-out best.txt
end
"""


def _seed_hash_seed_workspace(ws):
    """Seeded toy text: in-domain pe sentences, and monolingual text that
    shares half its words with them."""
    rng = np.random.default_rng(21)

    def sentences(words, n):
        return "".join(
            " ".join(rng.choice(words, size=int(rng.integers(3, 9)))) + "\n" for _ in range(n)
        )

    ws.mkdir()
    in_words = [f"w{i}" for i in range(24)]
    (ws / "pe.txt").write_text(sentences(in_words, 120), encoding="utf-8")
    (ws / "mono.txt").write_text(
        sentences(in_words[:12] + [f"m{i}" for i in range(24)], 160), encoding="utf-8"
    )
    (ws / "confusion.txt").write_text(
        "".join(f"w{i} x{i} y{i}\n" for i in range(12)), encoding="utf-8"
    )
    (ws / "train.cfg").write_text(
        "embedding_dim 4\nhidden_dim 4\nbatch_size 8\nmax_iterations 10\n", encoding="utf-8"
    )
    (ws / "decoder.cfg").write_text(
        "scorer mt model=model/model.bin input=mt weight=1.0\nfeature pep input=mt weight=1.0\n",
        encoding="utf-8",
    )


def test_run_does_not_depend_on_the_hash_seed(tmp_path):
    """One `run` config in two fresh workspaces, under PYTHONHASHSEED 1 and
    2: every stage runs and every file, manifest.json included, is
    byte-identical. In-process reruns share one hash seed, so only separate
    interpreters can show a dependence on string-hash order."""
    config = tmp_path / "pipeline.cfg"
    config.write_text(_HASH_SEED_PIPELINE, encoding="utf-8")
    stages = sorted(
        line.split()[1] for line in _HASH_SEED_PIPELINE.splitlines() if line.startswith("stage ")
    )
    trees = []
    for seed in ("1", "2"):
        ws = tmp_path / f"hash-seed-{seed}"
        _seed_hash_seed_workspace(ws)
        status, out, err = run_apeforge(
            ["run", "--config", config], ws,
            env={"PYTHONHASHSEED": seed, "APEFORGE_WORKSPACE": str(ws)},
        )
        assert "Traceback" not in err
        assert status == 0, err
        assert sorted(line[4:] for line in out.splitlines() if line.startswith("ran ")) == stages
        trees.append(
            {p.relative_to(ws).as_posix(): p.read_bytes() for p in ws.rglob("*") if p.is_file()}
        )
    assert "manifest.json" in trees[0]
    assert trees[0].keys() == trees[1].keys()
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []
