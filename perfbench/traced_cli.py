"""A cold `nit-sim` process with spans around its layers.

    PYTHONPATH=src python3 perfbench/traced_cli.py <trace.json> <nit-sim arguments>

Does what `python -m nit_sim <arguments>` does, after wrapping the names
`nit_sim.cli` and `nit_sim.spectra` look up, and writes the spans and
counts to <trace.json> before exiting with the CLI's code.
"""

import sys

from tracing import Tracer, install


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.cycle = 0
    with tracer.span("import.nit_sim"):
        import nit_sim.cli as cli
        import nit_sim.spectra as spectra
    install(tracer, cli)
    install(tracer, spectra)
    with tracer.span("cli.main"):
        rc = cli.main(argv)
    tracer.dump(path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
