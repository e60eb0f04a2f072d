"""The command-line examples of README.md parse, and the layered-config
example runs."""

import pathlib
import re
import shlex

import pytest

from kmslab import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _sh_blocks():
    """The lines of each ```sh code block of README.md."""
    return [block.splitlines() for block in
            re.findall(r"^```sh\n(.*?)^```$", README.read_text(),
                       flags=re.M | re.S)]


def _kmslab_lines():
    """(environment, arguments) of every kmslab command line."""
    found = []
    for block in _sh_blocks():
        for line in block:
            words = shlex.split(line, comments=True)
            env = {}
            while words and re.fullmatch(r"[A-Z_]+=.*", words[0]):
                key, value = words.pop(0).split("=", 1)
                env[key] = value
            if words[:1] == ["kmslab"]:
                found.append((env, words[1:]))
    return found


def _heredocs(block):
    """{file name: text} of the cat > name <<'EOF' ... EOF lines of a block."""
    files, lines = {}, iter(block)
    for line in lines:
        match = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if match:
            body = []
            for body_line in lines:
                if body_line == "EOF":
                    break
                body.append(body_line + "\n")
            files[match.group(1)] = "".join(body)
    return files


def _subcommand_at(args):
    return next(i for i, word in enumerate(args) if word in cli.cli.commands)


def test_readme_has_every_subcommand_and_the_config_example():
    lines = _kmslab_lines()
    assert ({args[_subcommand_at(args)] for _, args in lines}
            == set(cli.cli.commands))
    assert any(env for env, _ in lines)


@pytest.mark.parametrize("env, args", [
    pytest.param(env, args, id=" ".join(args))
    for env, args in _kmslab_lines()])
def test_readme_command_parses(env, args):
    for key in env:
        assert key.startswith("KMSLAB_"), key
    i = _subcommand_at(args)
    with cli.cli.make_context("kmslab", args[:i]) as ctx:
        assert not ctx.args
        cli.cli.commands[args[i]].make_context(args[i], args[i + 1:],
                                               parent=ctx).close()


def test_readme_layered_config_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in _sh_blocks() if _heredocs(b)]
    for name, text in _heredocs(block).items():
        (tmp_path / name).write_text(text)
    (env, args), = [(env, args) for env, args in _kmslab_lines() if env]
    monkeypatch.chdir(tmp_path)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = args[args.index("--out") + 1]
    assert cli.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["E=0.5", "E=1", "E=2"]
    manifest = (tmp_path / out / "manifest.txt").read_text().splitlines()
    for entry in ("beta=2.0", "energies=0.5,1.0,2.0", "kind=inertial"):
        assert entry in manifest
