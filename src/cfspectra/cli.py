"""Command-line front end: exact spectrum values, languages, cuts, dimensions.

Sequence literals:
    SEQ   := "per(" DIGITS ")"
           | ["l:per(" DIGITS ")"] ["mid(" DIGITS ")"] ["r:per(" DIGITS ")"]
    DIGITS over {1,2}; per(P) alone is the two-sided periodic sequence.
Thresholds: "sqrt(12)", "3+6^-18"-style exponentials, or decimals; all exact.
Exit codes: 0 success, 1 domain error, 2 budget exhausted / unresolved items,
3 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction

from . import errors
from .alphabets import enumerate_alphabets, farey_words, theta
from .biseq import BiSeq, lambda_at, markov_value
from .cf import cylinder, r_exponent
from .cuts import PUSH_TEMPLATES, Cut, classify_cut, push_cut
from .dimension import d_asymptotic_at, inverse_log, moran_bracket, thm2_bound_at
from .lang import CONNECT_KINDS, connecting_sequence, sigma_enumerate
from .renorm import find_alphabet
from .words import Word


_SEQ_RE = re.compile(
    r"^\s*(?:l:per\((?P<l>[12]+)\)\s*)?(?:mid\((?P<m>[12]*)\)\s*)?"
    r"(?:r:per\((?P<r>[12]+)\)\s*)?$")


def parse_sequence(text):
    """Parse the sequence literal grammar into a BiSeq."""
    t = text.strip()
    m = re.fullmatch(r"per\(([12]+)\)", t)
    if m:
        return BiSeq.periodic(m.group(1))
    m = _SEQ_RE.match(t)
    if not m or not (m.group("l") or m.group("r")):
        raise errors.DomainError("cannot parse sequence literal: %r" % text)
    left = m.group("l") or m.group("r")
    right = m.group("r") or m.group("l")
    return BiSeq.make(left, "", m.group("m") or "", right)


def _fmt_exact(v):
    """An exact SurdSum with its first seven decimals."""
    return "%s ≈ %s (first 7 decimals exact)" % (v, v.decimal(7))


def _emit(args, payload, text_lines):
    elapsed = payload.pop("elapsed", None)
    if args.format == "json":
        out = dict(payload)
        out.pop("rows", None)
        if args.timing and elapsed is not None:
            out["elapsed"] = elapsed
        print(json.dumps(out, indent=2, sort_keys=True, default=str))
    elif args.format == "csv":
        rows = payload.get("rows")
        if rows is None:
            rows = [[k, str(v)] for k, v in sorted(payload.items())]
        for row in rows:
            print(",".join('"%s"' % str(c).replace('"', '""')
                           if ("," in str(c) or '"' in str(c)) else str(c)
                           for c in row))
    else:
        for line in text_lines:
            print(line)
    if args.timing and elapsed is not None and args.format != "json":
        print("elapsed: %.3fs" % elapsed, file=sys.stderr)


def cmd_eval(args):
    seq = parse_sequence(args.seq)
    if args.at is not None:
        val = lambda_at(seq, args.at)
        if args.verify and (lambda_at(seq.shift(3), args.at - 3) - val).sign() != 0:
            raise errors.SpectraError("verification failed: shift invariance")
        payload = {"op": "lambda", "index": args.at, "value": str(val),
                   "decimal": val.decimal(10)}
        return 0, payload, ["lambda at %d: %s" % (args.at, _fmt_exact(val))]
    val, attained, idx = markov_value(seq)
    if args.verify and (markov_value(seq.shift(3))[0] - val).sign() != 0:
        raise errors.SpectraError("verification failed: shift invariance")
    payload = {"op": "markov", "value": str(val),
               "decimal": val.decimal(10),
               "attained": attained, "index": idx}
    lines = ["markov value: %s" % _fmt_exact(val),
             "attained: %s%s" % (attained, "" if idx is None else " at index %d" % idx)]
    return 0, payload, lines


def cmd_interval(args):
    w = Word(args.word)
    c = cylinder(w)
    r = r_exponent(w)
    payload = {"word": str(w), "lo": str(c.lo), "hi": str(c.hi),
               "length": str(c.length), "r": r}
    lines = ["I(%s) = [%s, %s]" % (w, c.lo, c.hi),
             "|I| = %s ≈ %.3e" % (c.length, float(c.length)),
             "r = floor(ln 1/|I|) = %d" % r]
    return 0, payload, lines


def cmd_alphabets(args):
    nodes = enumerate_alphabets(args.depth)
    rows = [["alpha", "beta", "witness", "depth"]]
    rows += [[str(a.alpha), str(a.beta), str(a.witness), a.depth] for a in nodes]
    payload = {"count": len(nodes),
               "alphabets": [{"alpha": str(a.alpha), "beta": str(a.beta),
                              "witness": str(a.witness)} for a in nodes],
               "rows": rows}
    lines = ["(%s, %s)  witness=%s" % (a.alpha, a.beta, a.witness or "-")
             for a in nodes]
    return 0, payload, lines


def cmd_farey(args):
    words = farey_words(args.n)
    rows = [["word", "theta"]] + [[str(w), str(theta(w))] for w in words]
    payload = {"n": args.n, "count": len(words), "rows": rows,
               "words": [str(w) for w in words]}
    return 0, payload, ["%s  theta=%s" % (w, theta(w)) for w in words]


def cmd_renorm(args):
    alphabet, dec = find_alphabet(Word(args.word), args.n)
    payload = {
        "word": args.word, "n": args.n,
        "alphabet": {"alpha": str(alphabet.alpha), "beta": str(alphabet.beta),
                     "witness": str(alphabet.witness)},
        "w1": str(dec.w1), "w2": str(dec.w2),
        "kernel_factorization": "".join(dec.kernel_letters),
    }
    lines = ["alphabet: (%s, %s)  witness=%s" % (alphabet.alpha, alphabet.beta,
                                                 alphabet.witness),
             "w1=%s kernel=%s w2=%s" % (dec.w1 or "-", dec.kernel_letters,
                                        dec.w2 or "-")]
    return 0, payload, lines


def cmd_sigma(args):
    if args.enum_budget <= 0:
        raise errors.DomainError("the enumeration budget must be positive")
    ls = sigma_enumerate(args.t, args.n, max_depth=args.enum_budget)
    if args.verify:
        for w in ls.sorted_words():
            if not ls.words[w].verify():
                raise errors.SpectraError("certificate failed for %s" % w)
    payload = dict(ls.to_json_obj())
    payload["rows"] = ls.rows()
    lines = ["%d words in Sigma(%s, %d)" % (len(ls.words), args.t, args.n)]
    lines += ["  " + w for w in ls.sorted_words()]
    if ls.unresolved:
        lines.append("unresolved: %s" % ", ".join(sorted(ls.unresolved)))
    code = 2 if ls.unresolved else 0
    return code, payload, lines


def cmd_cuts(args):
    cut = Cut.parse(args.cut)
    got = classify_cut(cut)
    payload = {"cut": str(cut), "class": got.kind,
               "sup_left": str(got.sup_left), "sup_right": str(got.sup_right)}
    lines = ["%s : %s" % (cut, got.kind),
             "sup lambda left  = %s" % _fmt_exact(got.sup_left),
             "sup lambda right = %s" % _fmt_exact(got.sup_right)]
    return 0, payload, lines


def cmd_pushcut(args):
    cut = Cut.parse(args.cut)
    out = push_cut(args.w, cut, args.kind)
    payload = {"cut": str(cut), "w": args.w, "kind": args.kind, "image": str(out)}
    lines = ["%s --%s/%s--> %s" % (cut, args.w, args.kind, out)]
    if args.verify:
        got = classify_cut(out)
        expect = "good" if args.kind.startswith("good") else "bad"
        if got.kind != expect:
            raise errors.SpectraError("pushed cut reclassified as %s" % got.kind)
        lines.append("verified: image classifies %s" % got.kind)
        payload["verified"] = got.kind
    return 0, payload, lines


def cmd_connect(args):
    alphabet = None
    if args.alphabet:
        from .alphabets import alphabet_from_pair
        pair = [x.strip() for x in args.alphabet.split(",")]
        if len(pair) != 2 or not all(pair):
            raise errors.DomainError("cannot parse alphabet %r" % args.alphabet)
        alphabet = alphabet_from_pair(*pair)
    seq = connecting_sequence(args.kind, args.n, alphabet)
    val, _, _ = markov_value(seq)
    payload = {"kind": args.kind, "n": args.n, "sequence": repr(seq),
               "markov": str(val),
               "decimal": val.decimal(10)}
    lines = ["sequence: %r" % seq, "markov value: %s" % _fmt_exact(val)]
    return 0, payload, lines


def cmd_dim(args):
    if args.blocks is not None:
        words = [w.strip() for w in args.blocks.split(",") if w.strip()]
    else:
        try:
            with open(args.words_file) as fh:
                words = [line.strip() for line in fh if line.strip()]
        except OSError as e:
            raise errors.DomainError("cannot read %s: %s" % (args.words_file,
                                                             e.strerror))
    b = moran_bracket(words, level=args.level)
    payload = {"lower": b.lower, "upper": b.upper, "level": b.level,
               "count": b.word_count}
    lines = ["bracket: [%.6f, %.6f] at level %d over %d cylinders"
             % (b.lower, b.upper, b.level, b.word_count)]
    return 0, payload, lines


def _parse_log_rho(text):
    """L = |log rho| of a rho given as e^-x, B^-E or a fraction, without
    forming rho as a float: x, E * ln B, or the logs of the fraction's
    numerator and denominator."""
    s = text.strip().replace(" ", "")
    m = re.fullmatch(r"e\^-(\d+(?:\.\d+)?)", s)
    if m:
        return float(m[1])
    m = re.fullmatch(r"(\d+)\^-(\d+)", s)
    if m and int(m[1]):  # 0^-E falls through to the parse error below
        return int(m[2]) * math.log(int(m[1]))
    try:
        rho = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise errors.DomainError("cannot parse rho %r" % text) from None
    return inverse_log(rho)


def cmd_asym(args):
    v = d_asymptotic_at(_parse_log_rho(args.rho))
    payload = {"rho": args.rho, "d_asymptotic": v}
    return 0, payload, ["d_asymptotic(%s) = %.10g" % (args.rho, v)]


def cmd_bound(args):
    v = thm2_bound_at(_parse_log_rho(args.rho), args.C)
    payload = {"rho": args.rho, "C": args.C, "bound": v}
    return 0, payload, ["difference-set dimension bound = %.10g" % v]


def cmd_verify_suite(args):
    from .acceptance import run_suite
    results = run_suite(full=args.full)
    rows = [["criterion", "status", "detail", "seconds"]]
    rows += [[r.name, r.status, r.detail, "%.1f" % r.seconds] for r in results]
    ok = all(r.ok for r in results)
    payload = {"rows": rows, "passed": ok}
    return (0 if ok else 1), payload, [r.line() for r in results]


def _add_common(p, suppress):
    # subparsers suppress defaults so values given before the subcommand stay
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    p.add_argument("--format", "-f", choices=("text", "json", "csv"),
                   default=d("text"))
    p.add_argument("--timing", action="store_true", default=d(False),
                   help="report elapsed time (kept out of deterministic output)")


def _add_verify(q):
    q.add_argument("--verify", action="store_true",
                   help="re-check results through independent code paths")


def build_parser():
    p = argparse.ArgumentParser(
        prog="cfspectra",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(p, suppress=False)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, **kw):
        q = sub.add_parser(name, **kw)
        _add_common(q, suppress=True)
        return q

    q = add("eval", help="markov value or lambda of a sequence")
    q.add_argument("--seq", required=True)
    q.add_argument("--at", type=int, default=None)
    _add_verify(q)
    q.set_defaults(fn=cmd_eval)

    q = add("interval", help="exact cylinder of a word")
    q.add_argument("--word", required=True)
    q.set_defaults(fn=cmd_interval)

    q = add("alphabets", help="the ordered-alphabet tree")
    q.add_argument("--depth", type=int, required=True)
    q.set_defaults(fn=cmd_alphabets)

    q = add("farey", help="Farey words of order n")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(fn=cmd_farey)

    q = add("renorm", help="scale-n alphabet of a word")
    q.add_argument("--word", required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(fn=cmd_renorm)

    q = add("sigma", help="enumerate the level-t language")
    q.add_argument("--t", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--enum-budget", type=int, default=28,
                   help="refutation depth budget for membership searches")
    _add_verify(q)
    q.set_defaults(fn=cmd_sigma)

    q = add("cuts", help="classify a cut")
    q.add_argument("--cut", required=True, help='for example "2211|2211"')
    q.set_defaults(fn=cmd_cuts)

    q = add("pushcut", help="push a template cut through U/V words")
    q.add_argument("--w", required=True, help="{U,V}-word")
    q.add_argument("--cut", required=True)
    q.add_argument("--kind", required=True, choices=tuple(PUSH_TEMPLATES))
    _add_verify(q)
    q.set_defaults(fn=cmd_pushcut)

    q = add("connect", help="Farey connecting sequences")
    q.add_argument("--kind", required=True, choices=CONNECT_KINDS)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--alphabet", default=None,
                   help='"alpha,beta" letters, for the alphabet kinds only')
    q.set_defaults(fn=cmd_connect)

    q = add("dim", help="Moran dimension bracket")
    blocks = q.add_mutually_exclusive_group(required=True)
    blocks.add_argument("--blocks", help="comma-separated digit blocks")
    blocks.add_argument("--words-file", help="one digit block per line")
    q.add_argument("--level", type=int, default=None)
    q.set_defaults(fn=cmd_dim)

    q = add("asym", help="near-3 dimension asymptotic")
    q.add_argument("--rho", required=True)
    q.set_defaults(fn=cmd_asym)

    q = add("bound", help="difference-set dimension bound")
    q.add_argument("--rho", required=True)
    q.add_argument("--C", type=float, default=0.0)
    q.set_defaults(fn=cmd_bound)

    q = add("verify-suite", help="run the acceptance criteria")
    q.add_argument("--full", action="store_true",
                   help="run the full (slow) variants where they exist")
    q.set_defaults(fn=cmd_verify_suite)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 3
    t0 = time.time()
    try:
        code, payload, lines = args.fn(args)
    except (errors.SpectraError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    payload.setdefault("elapsed", time.time() - t0)
    _emit(args, payload, lines)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
