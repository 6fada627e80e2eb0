#!/usr/bin/env python3
"""Checks that tests/build/all_headers.hpp includes every header under src/.

    python3 tests/build/all_headers_test.py

The ODR test compiles all_headers.hpp into two translation units, so a header
missing from the list is never checked for definitions leaking out of it.
Headers that are private by design are named in EXEMPT with the reason.
"""

import os
import re
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
SRC = os.path.join(ROOT, "src")
ALL_HEADERS = os.path.join(ROOT, "tests", "build", "all_headers.hpp")

# header -> why it is private by design. Empty: every header under src/ is
# public.
EXEMPT = {}


def headers_under_src():
    found = set()
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".hpp"):
                path = os.path.join(dirpath, name)
                found.add(os.path.relpath(path, SRC).replace(os.sep, "/"))
    return found


def listed_headers():
    with open(ALL_HEADERS) as f:
        return set(re.findall(r'^#include "([^"]+)"', f.read(), re.MULTILINE))


class AllHeadersTest(unittest.TestCase):
    def test_every_public_header_is_listed(self):
        missing = sorted(headers_under_src() - listed_headers() - set(EXEMPT))
        self.assertEqual(missing, [], "add these to tests/build/all_headers.hpp")

    def test_every_listed_header_exists(self):
        stale = sorted(listed_headers() - headers_under_src())
        self.assertEqual(stale, [], "remove these from tests/build/all_headers.hpp")

    def test_exemptions_name_unlisted_existing_headers(self):
        for header in EXEMPT:
            self.assertIn(header, headers_under_src(), "stale exemption")
            self.assertNotIn(header, listed_headers(), "exempt header is listed anyway")


if __name__ == "__main__":
    unittest.main()
