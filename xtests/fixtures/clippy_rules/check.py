"""Reads `cargo clippy --message-format=json` output for this fixture
on stdin. Each rule must fire in src/scoped.rs and none in
src/sibling.rs; exit 1 lists what is missing or misplaced. Clippy's own
exit code is not the check: the scoped module fails it by design."""

import json
import sys

RULES = [
    "unsafe_code",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
    "clippy::string_slice",
    "clippy::disallowed_methods",
    "clippy::disallowed_types",
    "clippy::let_underscore_untyped",
    "clippy::let_underscore_must_use",
    "clippy::unused_result_ok",
]

fired = {"src/scoped.rs": set(), "src/sibling.rs": set()}
for line in sys.stdin:
    msg = json.loads(line)
    if msg.get("reason") != "compiler-message":
        continue
    code = (msg["message"].get("code") or {}).get("code")
    for span in msg["message"]["spans"]:
        if span["is_primary"] and span["file_name"] in fired:
            fired[span["file_name"]].add(code)

errors = [f"src/scoped.rs: {r} did not fire" for r in RULES if r not in fired["src/scoped.rs"]]
errors += [f"src/sibling.rs: {r} fired" for r in RULES if r in fired["src/sibling.rs"]]
for e in errors:
    print(e)
if errors:
    sys.exit(1)
print(f"ok: {len(RULES)} rules fire in src/scoped.rs, none in src/sibling.rs")
