// netstore-lint driver: CLI, two-pass orchestration, suppression
// filtering, reporting, and the --self-test harness.
//
// Usage (superset of PR 1 — existing invocations are unchanged):
//   netstore_lint <dir-or-file>...            exit 1 if any finding
//   netstore_lint --self-test <fixture-dir>   exit 0 iff every rule fires
//                                             and clean fixtures stay clean
//   netstore_lint --json <path> <roots>...    also write a
//                                             netstore-report-v1 report
//                                             (validated by
//                                             tools/check_report.py)
//
// Directory walks skip `testdata` subtrees unless the root itself points
// into one, so `netstore_lint tools` gates the harness code without
// tripping over the deliberately broken fixtures.
#pragma once

namespace netstore::lint {

int run_cli(int argc, char** argv);

}  // namespace netstore::lint
