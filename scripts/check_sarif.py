#!/usr/bin/env python
"""Assert that a dayu-lint SARIF log holds results for given rule codes.

A SARIF log lists every *registered* rule in ``tool.driver.rules``, so
grepping the file for a code (or for text from a rule description)
passes whether or not the rule fired.  This checks the results alone:
every CODE must be the ``ruleId`` of at least one result, and every
``--contains`` TEXT must occur in the serialized results.

Run:  python scripts/check_sarif.py lint.sarif DY203 DY102
      python scripts/check_sarif.py race.sarif DY501 --contains dayu-witness/v1
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="check_sarif")
    parser.add_argument("sarif")
    parser.add_argument("codes", nargs="*", metavar="CODE")
    parser.add_argument("--contains", action="append", default=[],
                        metavar="TEXT")
    args = parser.parse_args(argv)
    with open(args.sarif, encoding="utf-8") as fh:
        results = json.load(fh)["runs"][0]["results"]
    fired = {r["ruleId"] for r in results}
    text = json.dumps(results)
    missing = [c for c in args.codes if c not in fired]
    missing += [t for t in args.contains if t not in text]
    if missing:
        print(f"check_sarif: {args.sarif}: no results for "
              f"{', '.join(missing)} (fired: {', '.join(sorted(fired))})",
              file=sys.stderr)
        return 1
    print(f"check_sarif: {args.sarif}: {len(results)} result(s) cover "
          f"{', '.join(args.codes + args.contains)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
