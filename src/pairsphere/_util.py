"""Small shared utilities."""

from __future__ import annotations

import os
import re
import tempfile

import numpy as np


def atomic_write_text(path, chunks) -> None:
    """Write an iterable of text chunks via a temp file + rename, so
    interrupted runs never leave truncated files and no caller need hold a
    whole file's text."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_records(path, widths: tuple, form: str):
    """Yield (line number, tokens) for each line of a text file that has tokens.

    Tokens are split at whitespace, and a token that starts with `#` begins a
    comment that runs to the end of the line. A line whose token count is not
    in `widths` raises ValueError naming the expected `form`.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            # search only lines with a `#`: run on every line, the regex made a 4M-line read 5x slower
            parts = (re.split(r"(?<!\S)#", line, maxsplit=1)[0] if "#" in line else line).split()
            if len(parts) in widths:
                yield lineno, parts
            elif parts:
                raise ValueError(f"{path}:{lineno}: expected {form}")


def derive_seed(*key) -> int:
    """Stable scalar seed derived from a tuple of ints/strings."""
    ints = []
    for part in key:
        if isinstance(part, str):
            ints.extend(part.encode())
        else:
            ints.append(int(part) & 0xFFFFFFFF)
    ss = np.random.SeedSequence(ints)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def rng_from(*key) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*key))
