"""Run one `khinchine` CLI job in-process with every layer traced.

    python bench/tracer.py SPANS.jsonl -- <khinchine arguments>

Stdout, stderr and the exit status are the CLI's own; the spans are written
to SPANS.jsonl when the job ends, also when it fails. The package must be
importable (for example with PYTHONPATH=src).
"""

import sys

import layers


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[3:]
    rec = layers.Recorder()
    try:
        with rec.span("cli.import"):
            from khinchine import cli
        layers.install(rec)
        return cli.main(argv)
    finally:
        rec.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
