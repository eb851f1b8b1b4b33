"""Record the sha256 of the benchmark's input documents in pins.json.

For seeds 0..10 each instance's three documents are pinned one by one;
for seeds 0..99 one digest over all of them.  ``run.py`` refuses to run a
seed whose pinned inputs no longer match, so that a change to ``datagen``
or ``jsonio`` cannot silently swap the workload under a comparison.
Re-pin only in a change that says so:

    python3 perfbench/pin_inputs.py
"""

import json

from run import PINS, load_package, no_span


DOCUMENT_SEEDS = range(11)
COMBINED_SEEDS = range(100)


def main():
    load_package()
    from workloads import WORKLOADS, build_instances, combined_digest, input_digests

    pins = {"documents": {}, "combined": {}}
    for workload in WORKLOADS.values():
        name = workload.instance_set
        if name in pins["combined"]:
            continue
        documents = pins["documents"][name] = {}
        combined = pins["combined"][name] = {}
        for seed in COMBINED_SEEDS:
            instances = build_instances(workload, seed, no_span)
            combined[str(seed)] = combined_digest(instances)
            if seed in DOCUMENT_SEEDS:
                documents[str(seed)] = input_digests(instances)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
