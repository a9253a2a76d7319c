"""Re-record ``pins.json`` from the package on the import path.

Runs every acceptance criterion once, with ``test_acceptance._pin``
recording instead of checking, and writes the file next to this script.
From the repository root:

    PYTHONPATH=src python tests/record_pins.py

pytest does not collect this file (its name does not start with ``test_``).
"""
import json

import test_acceptance as acceptance


def main():
    acceptance.RECORDED = {}
    for name in sorted(dir(acceptance)):
        if name.startswith("test_criterion_"):
            getattr(acceptance, name)()
    acceptance.PINS.write_text(json.dumps(acceptance.RECORDED, indent=1) + "\n")
    print(f"wrote {len(acceptance.RECORDED)} pins to {acceptance.PINS}")


if __name__ == "__main__":
    main()
