"""Record the SHA-256 references of every pooled instance and its output.

    python3 perfbench/record.py

Run from the root of a checkout.  It writes ``perfbench/reference.json``.
Generated instances and bundles are meant to stay byte-identical, so record
again only when a change alters the file formats on purpose, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".perfbench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = wl.Ledger()
    reference = {}
    try:
        cli = wl.fresh_import()
        for specs in wl.WORKLOADS.values():
            for spec in specs:
                for seed in spec.pool:
                    ident = spec.instance_id(seed)
                    item = wl.Item(spec, seed, workdir / f"{ident}.txt",
                                   workdir / f"{ident}.out.txt", 0)
                    rc, _, _ = wl.call_cli(cli, spec.gen_argv(seed, item.instance), ledger)
                    ledger.check(rc == 0, f"gen {ident}")
                    if spec.command == wl.EXACTNESS:
                        item.output.write_text(wl.build_total(item.instance, ledger))
                    else:
                        rc, out, _ = wl.call_cli(cli, [spec.command, str(item.instance),
                                                       "--out", str(item.output)], ledger)
                        ledger.check(wl.passed(rc, out), f"{spec.command} {ident}")
                    reference[ident] = {"instance": wl.sha256(item.instance),
                                        "output": wl.sha256(item.output)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if ledger.failed:
        print(f"record: {ledger.failed} of {ledger.attempted} operations failed; "
              "nothing written", file=sys.stderr)
        return 1
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"record: {len(reference)} references written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
