"""The hot kernels, in plain Python on ints and index triples.

* ``echelon_rows`` -- fraction-free integer row reduction, the engine behind
  every exact rank / kernel computation;
* ``tight_search`` -- exhaustive backtracking search for injective integer
  gradings (the brute-force oracle for tightness);
* ``balanced_exists`` -- existence search for a balanced multiset of index
  triples (a torus-invariant monomial) inside a support.

``linalg``, ``tight`` and ``monomials`` import them by name.
"""

from math import gcd


def backend_name():
    """The kernels are plain Python; the name is reported by the CLI."""
    return "python"


def _normalize_row(row):
    """Divide out the content and make the leading entry positive."""
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
    if g == 0:
        return row
    lead = 0
    for x in row:
        if x:
            lead = x
            break
    if lead < 0:
        g = -g
    if g != 1:
        row = [x // g for x in row]
    return row


def echelon_rows(rows):
    """Reduce integer rows to echelon form; returns {pivot column: row}.

    Fraction-free: each elimination step is a cross-multiplication
    ``row*p[c] - p*row[c]`` followed by content removal, so every
    intermediate value is an exact integer of controlled size.  The row
    space (hence rank and kernel) is preserved exactly.
    """
    pivots = {}
    ncols = len(rows[0]) if rows else 0
    for src in rows:
        row = list(src)
        c = 0
        while c < ncols:
            x = row[c]
            if x == 0:
                c += 1
                continue
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = _normalize_row(row)
                break
            a = piv[c]
            g = gcd(a, x)
            ma = a // g
            mb = x // g
            row = [ma * rj - mb * pj for rj, pj in zip(row, piv)]
            # row[c] is now zero; periodic content removal keeps entries small
            row = _normalize_row(row)
            c += 1
    return pivots


def _value_sequence(bound):
    """0, 1, -1, 2, -2, ... out to +/-bound."""
    yield 0
    for v in range(1, bound + 1):
        yield v
        yield -v


def tight_search(n, triples, bound):
    """Search for injective tau_A, tau_B, tau_C: [n] -> [-bound, bound] with
    tau_A(i)+tau_B(j)+tau_C(k) = 0 on every triple.

    Exhaustive over the window up to the translation symmetry
    (tau_A+a, tau_B+b, tau_C-a-b), which preserves both the sum conditions
    and injectivity; the search pins tau_A(1) = tau_B(1) = 0.  Returns the
    full assignment as a flat list [tau_A | tau_B | tau_C] or None.

    Backtracking with unit propagation: a triple with two assigned
    endpoints forces the third, so branching only happens on genuinely free
    variables.  Branching is fail-first (Haralick & Elliott 1980): each node
    branches on the unassigned constrained variable that sits in the most
    triples with exactly two unknowns, the lowest index on ties, so a
    forced collision surfaces before unrelated variables are enumerated.
    Values are tried in the order 0, 1, -1, 2, -2, ...  Used as the
    brute-force oracle against the linear-algebra tightness decision;
    deliberately shares no code with it.
    """
    nv = 3 * n
    cons = [(i - 1, n + j - 1, 2 * n + k - 1) for (i, j, k) in triples]
    m = len(cons)
    cons_of = [[] for _ in range(nv)]
    for ci, vs in enumerate(cons):
        for v in vs:
            cons_of[v].append(ci)

    val = [0] * nv
    done = [False] * nv
    # the three variables of a constraint sit in disjoint groups (A, B, C),
    # so none of them can coincide
    unknown = [3] * m
    ksum = [0] * m

    trail = []

    def group_ok(v, x):
        base = (v // n) * n
        for u in range(base, base + n):
            if u != v and done[u] and val[u] == x:
                return False
        return True

    def assign(v, x, queue):
        """Returns False on immediate contradiction; always leaves counters
        consistent so undo() can unwind unconditionally."""
        if x < -bound or x > bound or not group_ok(v, x):
            return False
        val[v] = x
        done[v] = True
        trail.append(v)
        ok = True
        for ci in cons_of[v]:
            unknown[ci] -= 1
            ksum[ci] += x
            if unknown[ci] == 0:
                if ksum[ci] != 0:
                    ok = False
            elif unknown[ci] == 1:
                queue.append(ci)
        return ok

    def undo_to(mark):
        while len(trail) > mark:
            v = trail.pop()
            done[v] = False
            for ci in cons_of[v]:
                unknown[ci] += 1
                ksum[ci] -= val[v]

    branch_vars = [v for v in range(nv) if cons_of[v]]

    def pick_branch():
        """Fail-first: the most triples with two unknowns, lowest index on
        ties; None once every constrained variable is assigned."""
        best, best_score = None, -1
        for v in branch_vars:
            if done[v]:
                continue
            score = 0
            for ci in cons_of[v]:
                if unknown[ci] == 2:
                    score += 1
            if score > best_score:
                best, best_score = v, score
        return best

    def fill_free():
        for v in range(nv):
            if done[v]:
                continue
            for x in _value_sequence(bound):
                if group_ok(v, x):
                    val[v] = x
                    done[v] = True
                    trail.append(v)
                    break
            else:  # pragma: no cover - window always dwarfs n
                return False
        return True

    def solve(queue):
        mark = len(trail)
        # unit propagation
        qi = 0
        while qi < len(queue):
            ci = queue[qi]
            qi += 1
            if unknown[ci] != 1:
                continue
            v = next(u for u in cons[ci] if not done[u])
            if not assign(v, -ksum[ci], queue):
                undo_to(mark)
                return False
        v = pick_branch()
        if v is not None:
            for x in _value_sequence(bound):
                sub = []
                mark2 = len(trail)
                if assign(v, x, sub):
                    if solve(sub):
                        return True
                undo_to(mark2)
            undo_to(mark)
            return False
        if fill_free():
            return True
        undo_to(mark)
        return False

    q0 = []
    if not assign(0, 0, q0):
        return None
    if n >= 1 and not assign(n, 0, q0):
        undo_to(0)
        return None
    if solve(q0):
        return list(val)
    return None


def balanced_exists(n, triples, max_degree):
    """Is there a nonempty multiset of the given triples, of size at most
    max_degree, whose three slot-wise value counts agree for every value?

    Such a multiset is exactly the exponent vector of a monomial in the
    coordinates x_{ijk} killed by every zero-sum diagonal one-parameter
    subgroup.  DFS over multiplicities with two prunes: the final size is at
    least sum_v max_slot_count(v), and a slot deficit for a value must be
    fillable by some remaining triple.

    Skipping a triple changes no count, so a node skips ahead in a loop, up
    to the first position past which some deficit can no longer be filled,
    and recurses only to use a triple: the depth stays within
    max_degree + 1 however many triples there are.  The positions are tried
    last-first, the order of one recursion per skip.
    """
    m = len(triples)
    if m == 0:
        return False
    cnt = [[0, 0, 0] for _ in range(n + 1)]  # cnt[v][s]: factors with v in slot s
    # last_s[v]: the last position whose triple carries v in slot s, or -1
    last0, last1, last2 = ([-1] * (n + 1) for _ in range(3))
    for idx, (i, j, k) in enumerate(triples):
        last0[i] = last1[j] = last2[k] = idx

    def rec(idx, deg):
        lower = 0
        end = m
        balanced = True
        for v in range(1, n + 1):
            c0, c1, c2 = cnt[v]
            if c0 == c1 == c2:
                lower += c0
                continue
            balanced = False
            top = max(c0, c1, c2)
            lower += top
            if c0 < top and last0[v] < end:
                end = last0[v] + 1
            if c1 < top and last1[v] < end:
                end = last1[v] + 1
            if c2 < top and last2[v] < end:
                end = last2[v] + 1
        if balanced and deg >= 1:
            return True
        if lower > max_degree:
            return False
        for k in range(end - 1, idx - 1, -1):
            t = triples[k]
            used = 0
            while deg + used < max_degree:
                used += 1
                for s in range(3):
                    cnt[t[s]][s] += 1
                if rec(k + 1, deg + used):
                    for s in range(3):
                        cnt[t[s]][s] -= used
                    return True
            for s in range(3):
                cnt[t[s]][s] -= used
        return False

    return rec(0, 0)
