"""Plain-text interchange helpers: CSV with fixed float formatting and
key=value sidecar files, through which the command line front end writes
every output file.

Every float is written with 17 significant digits, so repeated runs with
the same configuration produce byte-identical files.
"""

import os


def fmt17(x):
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def write_csv(path, header, columns):
    """Write 1-d columns of equal length under a comma-separated header
    string like 't,re,im', each cell with 17 significant digits."""
    import numpy as np
    names = header.split(",")
    if len(names) != len(columns):
        raise ValueError("header has %d fields but %d columns given"
                         % (len(names), len(columns)))
    if any(np.ndim(c) != 1 for c in columns):
        raise ValueError("columns must be 1-d")
    if len({len(c) for c in columns}) > 1:
        raise ValueError("column length mismatch")
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")


def write_keyvals(path, pairs):
    """Write an ordered mapping as 'key=value' lines.

    Section headers may be included by passing a key that starts with '['.
    Float values are formatted with fmt17, everything else with str().
    """
    with open(path, "w") as fh:
        for key, val in pairs:
            if key.startswith("["):
                fh.write(key + "\n")
                continue
            if isinstance(val, float):
                fh.write("%s=%s\n" % (key, fmt17(val)))
            else:
                fh.write("%s=%s\n" % (key, val))


def read_keyvals(path):
    """Read a key=value file back into a dict of strings.

    Section headers '[name]' prefix the keys that follow them as
    'name.key'. Blank lines and '#' comments are skipped.
    """
    out = {}
    section = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                continue
            if "=" not in line:
                raise ValueError("malformed line in %s: %r" % (path, raw))
            key, val = line.split("=", 1)
            key = key.strip()
            if section:
                key = section + "." + key
            out[key] = val.strip()
    return out


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
