"""Seeded inputs and output checks for the benchmark's five workloads.

``generate`` writes a job list (``manifest.json``) and the JSON files the
jobs read into one directory. The same workload, seed and job count give
byte-identical files. A job is an argument list for
``weylift.cli.run_command``, run with that directory as the working
directory. ``check`` decides whether a job's report is right, from data
the program never sees.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from weylift import QQ, BracketFlavor, Field
from weylift.charp import phi_p
from weylift.flavors import Grading
from weylift.grammar import parse_element
from weylift.serialize import dump_json, endo_from_json, endo_to_json, word_from_json, word_to_json
from weylift.singlift import extend_to_aux
from weylift.tame import PSHIFT, SP, XSHIFT, ElementaryGen, TameWord, evaluate, gen_endo, random_tame
from weylift.weyl import WeylElt

import oracle

#: Jobs in one pass over a workload's job list.
JOBS = {"approx": 56, "lift": 120, "center": 120, "scan": 600, "ordered": 800}

APPROX_ORDER = 4
LIFT_ORDER = 6
LIFT_PRIMES = "3,5,7"
#: 13 twice, so that the median job and the 90th percentile fall inside
#: the p = 13 and p = 17 groups, not in the gap between two groups.
CENTER_PRIMES = (7, 11, 13, 13, 17)
SCAN_SAMPLES = 200

#: Word seeds for ``approx``, sorted into classes by the length of the
#: order-4 approximation word the library returned when the benchmark was
#: defined (see build_pool.py). A pass draws a fixed number of words from
#: the light and tail classes, close to their natural shares, so every
#: seed gets the same mix of cheap and tail-heavy words and job_ms_p90
#: falls among the tail. The classes are part of the input definition: they are not
#: recomputed when the library changes.
APPROX_POOL = Path(__file__).with_name("approx_pool.json")

#: (pairs, maxdeg, class, share of a pass) for ``approx``.
APPROX_MIX = (
    (1, 3, "light", 28),
    (2, 2, "light", 21),
    (2, 2, "tail", 5),
)

#: The two heavy words of every ``approx`` pass, n = 2 and maxdeg 2: seed
#: 5 (421 letters) and seed 17 (409 letters). About 8% of n = 2 words are
#: this heavy. Each takes about 2 s, so together they take about half a
#: pass. Drawn by seed, they would make the cost of a pass depend on which
#: two were drawn.
APPROX_HEAVY = (5, 17)


def _rng(workload, seed, idx=None):
    return random.Random(f"{workload}/{seed}" + ("" if idx is None else f"/{idx}"))


def _shear(n, pair, m, lower):
    g = 2 * n
    mat = [[Fraction(int(r == s)) for s in range(g)] for r in range(g)]
    if lower:
        mat[n + pair][pair] = Fraction(m)
    else:
        mat[pair][n + pair] = Fraction(m)
    return mat


def word_shape(j):
    """Shape number j of a corpus-style word: (pairs, sides, letters, sheared).

    ``sides`` holds each pair's shift side; a letter is (pair, top degree,
    extra degree-2 term). Degrees follow the acceptance corpus's shares (a
    third of the letters cubic, 40% of those with an extra term) but by
    index, so every seed gets the same shapes.
    """
    n = 1 + j % 2
    sides = tuple((XSHIFT, PSHIFT)[(j // 3 + i) % 2] for i in range(n))
    letters = []
    for t in range(1 + (j // 2) % 4):
        cubic = (j // 8 + t) % 3 == 0
        letters.append((t % n, 3 if cubic else 2, cubic and (j // 24 + t) % 5 < 2))
    return n, sides, letters, j % 10 == 9


def corpus_word(rng, shape):
    """A word like the acceptance corpus, of a given shape.

    The seed picks the coefficients, 1 or 2 times one sign per word, and
    the shear's sign. With one sign, letters on a pair never cancel, which
    would turn the word into a cheaper shape. All shifts on a pair act on
    one side: words that shift both sides of a pair are left out, since
    their exact ordered evaluation has no bound yet. A sheared word keeps
    its first two letters and is conjugated by a shear.
    """
    n, sides, letters, sheared = shape
    sign = rng.choice((-1, 1))
    gens = []
    for i, top, extra in letters:
        poly = {top: Fraction(sign * rng.choice((1, 2)))}
        if extra:
            poly[2] = Fraction(sign)
        gens.append(ElementaryGen(sides[i], (i, poly)))
    if sheared:
        gens = gens[:2]
        pair = gens[0].data[0]
        m = rng.choice((-1, 1))
        lower = sides[pair] == PSHIFT
        gens = (
            [ElementaryGen(SP, _shear(n, pair, m, lower))]
            + gens
            + [ElementaryGen(SP, _shear(n, pair, -m, lower))]
        )
    return TameWord("symplectic", n, gens)


# ------------------------------------------------------------ generators


def _gen_approx(seed, count, put):
    """The heavy words, then, per class, the pool (sorted by word length) is
    cut into as many equal bins as the class gets jobs, and one word is
    drawn from each bin."""
    pool = json.loads(APPROX_POOL.read_text())
    rng = _rng("approx", seed)
    total = sum(share for *_, share in APPROX_MIX) + len(APPROX_HEAVY)
    picks = [(2, 2, word_seed) for word_seed in APPROX_HEAVY]
    for n, maxdeg, cls, share in APPROX_MIX:
        items = pool[f"n{n}_maxdeg{maxdeg}"][cls]
        k = max(1, round(count * share / total))
        for b in range(k):
            word_seed, _ = rng.choice(items[len(items) * b // k : len(items) * (b + 1) // k])
            picks.append((n, maxdeg, word_seed))
    rng.shuffle(picks)
    for idx, (n, maxdeg, word_seed) in enumerate(picks[:count]):
        word = random_tame(n, 4, maxdeg, word_seed)
        sigma = evaluate(word, "P", BracketFlavor("standard", n), QQ)
        path = put(idx, endo_to_json(sigma))
        yield {"argv": ["approximate", "--in", path, "--order", str(APPROX_ORDER)]}


def _gen_lift(seed, count, put):
    for idx in range(count):
        word = corpus_word(_rng("lift", seed, idx), word_shape(idx))
        sigma = evaluate(word, "P", BracketFlavor("standard", word.n), QQ)
        path = put(idx, endo_to_json(sigma))
        argv = ["lift", "--in", path, "--order", str(LIFT_ORDER), "--primes", LIFT_PRIMES]
        yield {"argv": argv}


def _gen_center(seed, count, put):
    for idx in range(count):
        # consecutive shapes go to each prime in turn
        k = len(CENTER_PRIMES)
        word = corpus_word(_rng("center", seed, idx), word_shape(idx // k))
        ordered = evaluate(word, "W", BracketFlavor("standard", word.n), QQ)
        path = put(idx, endo_to_json(ordered))
        p = CENTER_PRIMES[idx % k]
        yield {
            "argv": ["phi-p", "--in", path, "--prime", str(p)],
            "word": word_to_json(word),
            "letters": len(word),
        }


def _gen_scan(seed, count, put):
    """Two jobs in three have rank above N, so the scan is consistent; the
    third has rank at most N on the aux-extended flavor, so a pole witness
    exists. The consistent jobs cost more, so with two in three the median
    job falls inside that group, not between the groups."""
    for idx in range(count):
        rng = _rng("scan", seed, idx)
        order = 1 + (idx // 3) % 3
        n = 1 + rng.randrange(2)
        flavor = BracketFlavor("standard", n)
        if idx % 3 != 2:
            family = "consistent"
            sides = {i: rng.choice((XSHIFT, PSHIFT)) for i in range(n)}
            gens = []
            for _ in range(rng.randrange(1, 3)):
                i = rng.randrange(n)
                deg = rng.randrange(order + 1, order + 3)
                gens.append(ElementaryGen(sides[i], (i, {deg: Fraction(rng.choice((-2, -1, 1, 2)))})))
            sigma = evaluate(TameWord("symplectic", n, gens), "P", flavor, QQ)
        else:
            family = "witness"
            if order == 1:
                # x_j += p_j: a linear map, the word is one sp letter
                gens = [ElementaryGen(SP, _shear(n, rng.randrange(n), 1, False))]
            else:
                side = rng.choice((XSHIFT, PSHIFT))
                deg = rng.randrange(2, order + 1)
                gens = [ElementaryGen(side, (rng.randrange(n), {deg: Fraction(rng.choice((-2, -1, 1, 2)))}))]
            sigma = extend_to_aux(evaluate(TameWord("symplectic", n, gens), "P", flavor, QQ))
        path = put(idx, endo_to_json(sigma))
        argv = [
            "singscan", "--in", path, "--order", str(order),
            "--samples", str(SCAN_SAMPLES), "--seed", str(rng.randrange(10**6)),
        ]
        yield {"argv": argv, "family": family, "order": order, "letters": len(gens)}


#: (flavor kind, pairs) cycled through by ``ordered``, each over Q and F_7.
ORDERED_FLAVORS = (("skew", 2), ("skew", 3), ("haug", 2), ("standard", 2))
ORDERED_FIELDS = ("Q", "7")


def _random_element(rng, kind, n):
    """Terms (coeff, word, h, k pairs) with words in normal order."""
    if kind == "skew":
        letters = [(i,) for i in range(2 * n)]
    else:
        letters = [(0, i) for i in range(n)] + [(1, i) for i in range(n)]
    terms = []
    for _ in range(rng.randrange(2, 7)):
        word = tuple(sorted(rng.choice(letters) for _ in range(rng.randrange(1, 5))))
        h = int(kind != "standard" and rng.random() < 0.25)
        k = ()
        if kind == "skew" and rng.random() < 0.25:
            k = (tuple(sorted(rng.sample(range(2 * n), 2))),)
        terms.append((rng.choice((-3, -2, -1, 1, 2, 3)), word, h, k))
    return terms


def _element_text(kind, terms):
    out = []
    for c, word, h, k in terms:
        if kind == "skew":
            factors = [f"xi{i + 1}" for (i,) in word]
        else:
            factors = [f"{'x' if side == 0 else 'd'}{i + 1}" for side, i in word]
        factors += ["h"] * h + [f"k{i + 1}_{j + 1}" for i, j in k]
        body = "*".join([str(abs(c))] + factors)
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out)


def _gen_ordered(seed, count, put):
    for idx in range(count):
        rng = _rng("ordered", seed, idx)
        kind, n = ORDERED_FLAVORS[idx % len(ORDERED_FLAVORS)]
        field = ORDERED_FIELDS[(idx // len(ORDERED_FLAVORS)) % len(ORDERED_FIELDS)]
        a, b = _random_element(rng, kind, n), _random_element(rng, kind, n)
        # "--" ends the flags: bracket reads an expression starting with "-" as a flag
        argv = [
            "bracket", "--side", "W", "--flavor", kind, "--n", str(n), "--field", field,
            "--", _element_text(kind, a), _element_text(kind, b),
        ]
        letters = sum(len(t[1]) for t in a + b)
        yield {"argv": argv, "a": a, "b": b, "letters": letters, "oracle": idx % 4 == 0}


_GENERATORS = {
    "approx": _gen_approx,
    "lift": _gen_lift,
    "center": _gen_center,
    "scan": _gen_scan,
    "ordered": _gen_ordered,
}


def generate(workload, seed, out_dir, count=None):
    """Write the inputs of one workload and seed; returns the job list."""
    out_dir = Path(out_dir)
    (out_dir / "in").mkdir(parents=True, exist_ok=True)

    def put(idx, doc):
        rel = f"in/{idx:03d}.json"
        dump_json(doc, str(out_dir / rel))
        return rel

    count = JOBS[workload] if count is None else count
    jobs = list(_GENERATORS[workload](seed, count, put))
    manifest = {"workload": workload, "seed": seed, "jobs": jobs}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return jobs


# ---------------------------------------------------------------- checks


def _field(text):
    return QQ if text == "Q" else Field("Fp", int(text))


def _check_approx(job, result):
    target = endo_from_json(json.loads(Path(job["argv"][2]).read_text()))
    maxdeg = APPROX_ORDER - 1
    grading = Grading.default_for(target.flavor)
    got = evaluate(word_from_json(result["word"]), "P", target.flavor, QQ, maxdeg=maxdeg)
    return all(
        (a - b).truncate(maxdeg, grading).is_zero for a, b in zip(got.images, target.images)
    )


def _check_lift(job, result):
    cert = result["certificate"]
    statuses = [entry["status"] for entry in cert["primes"].values()]
    return (
        cert["pass"] is True
        and len(statuses) == len(LIFT_PRIMES.split(","))
        and all(s in ("exact", "fixture_match") for s in statuses)
    )


def _check_center(job, result):
    word = word_from_json(job["word"])
    flavor = BracketFlavor("standard", word.n)
    fp = Field("Fp", int(job["argv"][4]))
    expected = None
    for gen in reversed(word.gens):
        step = phi_p(gen_endo(gen, "W", flavor, fp))
        expected = step if expected is None else step.compose(expected)
    return endo_from_json(result["endo"]) == expected


def _check_scan(job, result):
    if job["family"] == "consistent":
        return result["verdict"] == "ConsistentWithHN"
    if result["verdict"] != "PoleWitness":
        return False
    m1, m2, order = max(result["curve"]), min(result["curve"]), job["order"]
    return (order + 1) * m2 >= m1 >= order * m2


def _oracle_element(terms, field, flavor):
    """Library element with the oracle's integer terms reduced into field."""
    out = {}
    for (word, h, k), c in terms.items():
        key = [0] * flavor.key_len
        for letter in word:
            key[letter[0] if flavor.kind == "skew" else letter[0] * flavor.pairs + letter[1]] += 1
        if h:
            key[flavor.h_slot] = h
        for i, j in k:
            key[flavor.k_slot(i, j)] += 1
        key = tuple(key)
        out[key] = field.add(out.get(key, field.zero()), field.from_int(c))
    return WeylElt(field, flavor, out)


def _check_ordered(job, result):
    """Every job's output must parse; every fourth is compared with the oracle."""
    argv = job["argv"]
    kind = argv[argv.index("--flavor") + 1]
    flavor = BracketFlavor(kind, int(argv[argv.index("--n") + 1]))
    field = _field(argv[argv.index("--field") + 1])
    got = parse_element(result["bracket"], field, flavor, "W", WeylElt)
    if not job["oracle"]:
        return True
    a, b = ([(c, tuple(map(tuple, w)), h, tuple(map(tuple, k))) for c, w, h, k in job[s]] for s in "ab")
    return got == _oracle_element(oracle.commutator(kind, a, b), field, flavor)


_CHECKS = {
    "approx": _check_approx,
    "lift": _check_lift,
    "center": _check_center,
    "scan": _check_scan,
    "ordered": _check_ordered,
}


def check(workload, job, report, code):
    """True when the job exited 0 and its result passes the workload's check."""
    if code != 0 or "result" not in report:
        return False
    if workload == "center" and report["verification"].get("symplecto") is not True:
        return False
    return _CHECKS[workload](job, report["result"])


def word_letters(workload, job, report):
    """Letters of the words a job produces (approx, lift) or reads."""
    if workload == "approx":
        return len(report["result"]["word"]["gens"])
    if workload == "lift":
        return report["result"]["certificate"]["word_length"]
    return job["letters"]
