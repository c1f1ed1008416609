#!/usr/bin/env python3
"""Self-test of the load generator.

    python3 perfbench/tests/test_loadgen.py

Builds the benchmark like run.py does, then checks that:
  - with the server child stopped (SIGSTOP) for a fixed pause during an
    open-loop run, latencies measured from the intended send time include
    the pause, while the generator's own schedule lag stays small;
  - a response arriving out of request order on a connection is caught.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)


class LoadGeneratorSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.perf, cls.server = run.build()

    def invoke(self, *args):
        proc = subprocess.run([self.perf, *args], capture_output=True,
                              text=True, timeout=120, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_pause_is_counted_from_intended_send_time(self):
        os.makedirs(os.path.join(run.BUILD_DIR, "tmp"), exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="selftest-",
                               dir=os.path.join(run.BUILD_DIR, "tmp"))
        try:
            r = self.invoke("selftest-pause", "--server", self.server,
                            "--tmp", tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        pause_us = r["pause_ms"] * 1000.0
        self.assertEqual(r["violations"], 0, r)
        self.assertEqual(r["failed"], 0, r)
        # The request due right when the server stopped waits the whole
        # pause; about a tenth of the window's requests fall inside it.
        self.assertGreaterEqual(r["latency_max_us"], 0.9 * pause_us, r)
        self.assertGreaterEqual(r["latency_p99_us"], 0.3 * pause_us, r)
        # Timed from the actual send, the queued requests hide the stall:
        # the coordinated omission the intended-time clock corrects.
        self.assertLess(r["send_latency_p99_us"], 0.5 * r["latency_p99_us"], r)
        # The generator itself kept to its schedule.
        self.assertLess(r["late_us_p99"], 2000.0, r)

    def test_out_of_order_response_is_caught(self):
        r = self.invoke("selftest-order")
        self.assertTrue(r["out_of_order_caught"], r)
        self.assertTrue(r["in_order_accepted"], r)


if __name__ == "__main__":
    unittest.main()
