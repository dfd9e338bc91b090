#!/usr/bin/env python3
"""End-to-end smoke test of gem_cli's snapshot lifecycle.

Run directly (registered in ctest as cli_smoke_test):

    python3 tests/cli/cli_smoke_test.py path/to/gem_cli tests/data/golden

On the committed golden scenario it trains a model and writes it with
`train --snapshot_out`, checks that `snapshot inspect --json` reports a
healthy v2 layout, and serves the test CSV from that file through
`serve --snapshots=`, which must answer every request.
"""

import csv
import json
import os
import subprocess
import sys
import tempfile
import unittest

GEM_CLI = sys.argv.pop(1) if len(sys.argv) > 1 else "gem_cli"
DATA_DIR = (sys.argv.pop(1) if len(sys.argv) > 1 else
            os.path.join(os.path.dirname(__file__), os.pardir, "data",
                         "golden"))


def run_cli(*args):
    return subprocess.run([GEM_CLI, *args], capture_output=True, text=True,
                          timeout=240)


class CliSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.snapshot = os.path.join(cls.tmp.name, "home.gem")
        cls.train = run_cli("train", os.path.join(DATA_DIR, "train.csv"),
                            "--snapshot_out=" + cls.snapshot)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_train_writes_snapshot(self):
        self.assertEqual(self.train.returncode, 0, self.train.stderr)
        self.assertTrue(os.path.getsize(self.snapshot) > 0)

    def test_inspect_reports_healthy_v2(self):
        inspect = run_cli("snapshot", "inspect", self.snapshot, "--json")
        self.assertEqual(inspect.returncode, 0, inspect.stderr)
        report = json.loads(inspect.stdout)
        self.assertEqual(report["version"], 2)
        self.assertTrue(report["layout_ok"], report["layout_error"])
        self.assertTrue(report["healthy"])
        self.assertEqual(len(report["sections"]), 6)
        for section in report["sections"]:
            self.assertTrue(section["crc_ok"], section["name"])
            self.assertTrue(section["aligned"], section["name"])

    def test_serve_answers_every_request(self):
        requests_csv = os.path.join(DATA_DIR, "test.csv")
        with open(requests_csv, newline="") as f:
            requests = {row["record_id"] for row in csv.DictReader(f)}
        serve = run_cli("serve", "--snapshots=" + self.snapshot,
                        "--requests=" + requests_csv)
        self.assertEqual(serve.returncode, 0, serve.stderr)
        lines = serve.stdout.strip().splitlines()
        self.assertEqual(lines[0],
                         "fence_id,timestamp_s,decision,score,generation")
        rows = lines[1:]
        self.assertEqual(len(rows), len(requests))
        for row in rows:
            self.assertTrue(row.startswith("home,"), row)


if __name__ == "__main__":
    unittest.main()
