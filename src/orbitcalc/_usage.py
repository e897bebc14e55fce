"""The argparse parser of cli's command table: the only source of help,
usage text and usage errors.

cli reads a line in canonical form itself (cli._read_line) and builds this
parser only for any other line: help, abbreviations, --opt=value, repeats,
unknown tokens, values beginning with "-".  So a table command's process
imports neither argparse nor the gettext and locale modules it loads.
build_parser is handed the table and this module never imports cli, which
`python -m orbitcalc.cli` runs as __main__.
"""

import argparse


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that adds its options on its first parse, so
    that a process builds only the arguments of the command it runs (each
    add_argument makes a help formatter, which asks for the terminal size)."""

    def __init__(self, *, options, **kwargs):
        super().__init__(**kwargs)
        self._pending_options = options

    def parse_known_args(self, args=None, namespace=None):
        if self._pending_options is not None:
            for flag, kwargs in self._pending_options:
                self.add_argument(flag, **kwargs)
            self._pending_options = None
        return super().parse_known_args(args, namespace)


def build_parser(commands):
    """The parser of `commands`: name -> (handler, help, options), each
    option a flag and its add_argument keywords (cli.COMMANDS)."""
    ap = argparse.ArgumentParser(
        prog="orbitcalc",
        description="nilpotent-orbit combinatorics: orbits, duality maps, "
                    "unramified classes and wavefront sets")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_Subcommand)
    for name, (func, text, options) in commands.items():
        sub.add_parser(name, help=text, options=options).set_defaults(func=func)
    return ap
