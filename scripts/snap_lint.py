#!/usr/bin/env python3
"""Lint mmr-snap-v1 checkpoint files (stdlib only).

Validates the binary container layout written by src/mmr/snapshot/format.cpp
(all integers little-endian):

  magic            "mmr-snap-v1\\n"        12 bytes
  u32 version      VERSION (below; bumped whenever a snap() walk changes)
  u64 config_digest
  u64 cycle
  u32 section_count
  u32 header_crc   crc32 of the 24 bytes version..section_count
  per section:
    u32 name_len, name bytes, u64 data_len, u32 data_crc, data bytes

Checks, per file:
  * magic and version match
  * header CRC matches the version..section_count bytes
  * every section parses without running past end-of-file
  * section names are non-empty printable ASCII and unique within the file
  * every section's payload CRC matches
  * no trailing garbage after the last section

Usage:
  snap_lint.py [--check] [FILE...]
    --check   run the built-in self-test corpus first (exits non-zero on
              self-test failure); FILEs are linted afterwards as usual

Exit status: 0 clean, 1 lint/self-test errors, 2 usage errors.
"""

import struct
import sys
import zlib

MAGIC = b"mmr-snap-v1\n"
VERSION = 8
MAX_NAME_LEN = 4096  # sanity bound; real section names are short identifiers


def lint_bytes(blob, name="<input>"):
    """Returns a list of 'name: message' strings (empty = clean)."""
    errors = []

    def err(message):
        errors.append(f"{name}: {message}")

    if len(blob) < len(MAGIC) + 24 + 4:
        return [f"{name}: truncated: {len(blob)} bytes is smaller than the "
                f"fixed header"]
    if blob[:len(MAGIC)] != MAGIC:
        return [f"{name}: bad magic {blob[:len(MAGIC)]!r} (want {MAGIC!r})"]

    header = blob[len(MAGIC):len(MAGIC) + 24]
    version, config_digest, cycle, section_count = struct.unpack(
        "<IQQI", header)
    (header_crc,) = struct.unpack_from("<I", blob, len(MAGIC) + 24)
    if version != VERSION:
        return [f"{name}: unsupported version {version} (want {VERSION})"]
    if header_crc != zlib.crc32(header):
        return [f"{name}: header CRC mismatch (stored {header_crc:#010x}, "
                f"computed {zlib.crc32(header):#010x})"]

    offset = len(MAGIC) + 24 + 4
    seen = set()
    for index in range(section_count):
        where = f"section {index}/{section_count} at offset {offset}"
        if offset + 4 > len(blob):
            err(f"truncated: {where}: no room for name_len")
            return errors
        (name_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if name_len == 0 or name_len > MAX_NAME_LEN:
            err(f"{where}: implausible name_len {name_len}")
            return errors
        if offset + name_len > len(blob):
            err(f"truncated: {where}: name runs past end of file")
            return errors
        raw_name = blob[offset:offset + name_len]
        offset += name_len
        if not all(0x20 <= byte < 0x7F for byte in raw_name):
            err(f"{where}: section name is not printable ASCII")
            return errors
        section = raw_name.decode("ascii")
        if section in seen:
            err(f"{where}: duplicate section name '{section}'")
        seen.add(section)
        if offset + 12 > len(blob):
            err(f"truncated: section '{section}': no room for data_len/crc")
            return errors
        data_len, data_crc = struct.unpack_from("<QI", blob, offset)
        offset += 12
        if offset + data_len > len(blob):
            err(f"truncated: section '{section}': {data_len}-byte payload "
                f"runs past end of file")
            return errors
        payload = blob[offset:offset + data_len]
        offset += data_len
        if data_crc != zlib.crc32(payload):
            err(f"section '{section}': payload CRC mismatch "
                f"(stored {data_crc:#010x}, "
                f"computed {zlib.crc32(payload):#010x})")

    if offset != len(blob):
        err(f"{len(blob) - offset} trailing bytes after the last section")
    if not errors:
        print(f"{name}: ok (cycle {cycle}, config digest "
              f"{config_digest:#018x}, {section_count} sections)")
    return errors


def lint_file(path):
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        return [f"{path}: cannot read: {exc}"]
    return lint_bytes(blob, name=path)


# --- self-test corpus ------------------------------------------------------

def _encode(config_digest, cycle, sections):
    header = struct.pack("<IQQI", VERSION, config_digest, cycle,
                         len(sections))
    blob = MAGIC + header + struct.pack("<I", zlib.crc32(header))
    for section, payload in sections:
        raw = section.encode("ascii")
        blob += struct.pack("<I", len(raw)) + raw
        blob += struct.pack("<QI", len(payload), zlib.crc32(payload))
        blob += payload
    return blob


def self_test():
    good = _encode(0xC0FFEE, 4200,
                   [("sim", b"\x01\x02\x03\x04"),
                    ("router", bytes(range(256))),
                    ("empty", b"")])
    cases = [("clean snapshot", good, False)]

    cases.append(("bad magic", b"X" + good[1:], True))

    bad = bytearray(good)
    bad[12] = 99  # low byte of the little-endian version word
    cases.append(("bad version", bytes(bad), True))

    bad = bytearray(good)
    bad[20] ^= 0x01  # a cycle byte, covered by the header CRC
    cases.append(("header CRC mismatch", bytes(bad), True))

    bad = bytearray(good)
    bad[-1] ^= 0x80  # last payload byte of the final section
    cases.append(("payload CRC mismatch", bytes(bad), True))

    cases.append(("truncated header", good[:20], True))
    cases.append(("truncated mid-section", good[:-3], True))
    cases.append(("trailing garbage", good + b"\x00", True))

    bad = _encode(1, 1, [("twin", b"a"), ("twin", b"b")])
    cases.append(("duplicate section name", bad, True))

    bad = _encode(1, 1, [("bin\x01ary", b"a")])
    cases.append(("non-printable section name", bad, True))

    failures = 0
    for label, blob, expect_errors in cases:
        errors = lint_bytes(blob, name=label)
        if bool(errors) != expect_errors:
            failures += 1
            print(f"self-test FAILED: {label}: expected "
                  f"{'errors' if expect_errors else 'clean'}, got {errors}",
                  file=sys.stderr)
    if failures == 0:
        print(f"snap_lint self-test ok ({len(cases)} cases)")
    return failures


def main(argv):
    args = list(argv[1:])
    run_check = False
    if args and args[0] == "--check":
        run_check = True
        args = args[1:]
    if not run_check and not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    status = 0
    if run_check and self_test() != 0:
        status = 1
    for path in args:
        errors = lint_file(path)
        if errors:
            status = 1
            for error in errors:
                print(error, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
