'''Exact counting of cube states and the pigeonhole move-count bound.

Every count is one row of non-negative exponents over a fixed tuple of
integer factors (8!, 3, 12!, 2, 24!, 24!/24^6, 24^6/2, 24!/2). `_row`
is the single statement of the closed forms and the only place the
parity of n enters: odd cubes carry the single-edge family and the fixed
centres, even cubes do not, and the number of 24-slot orbit families
grows quadratically either way. The factors already hold the closed
forms' quotients, so no count divides. Each row is read three ways: as
an exact Python integer (the public counts), as exact decimal digits
(`count_digits`, for printing counts far past the interpreter's
int-to-str limit) and as an interval logarithm (the bounds below).
The only floats are two estimates checked exactly afterwards: the length
that sizes the decimal precision, where a trapped rounding would expose
an estimate that fell short, and the tuned bound's starting k.

The move-count bound is the pigeonhole argument: with 6n basic quarter
turns, at most (6n)^k states are reachable within k turns, so any k
with (6n)^k below the physical state count is a strict lower bound on
the worst-case solve length. The logarithm quotient is evaluated with
interval arithmetic so the reported ceiling is certified: if the
interval leaves the ceiling ambiguous the computation refuses rather
than guessing. A tuned variant sums the reduced word counts instead of
the raw powers. Only the bound functions import mpmath, when called.
'''

from contextlib import contextmanager
from dataclasses import dataclass
import decimal
from math import ceil, factorial, log, log10, prod


class PrecisionTooLow(ValueError):
    '''The working precision leaves the bound's ceiling ambiguous.'''


@dataclass(frozen=True)
class BoundResult:
    '''A certified move-count lower bound for one cube size.

    bound is the real-valued log quotient at the stated precision (for
    the tuned variant, the integer it lands on); ceiling is the smallest
    integer move count the argument rules out being beaten. s_phys, the
    physical state count, is built only when read.
    '''

    n: int
    basic_move_count: int
    precision: int
    bound: object
    ceiling: int

    @property
    def s_phys(self):
        return s_phys_size(self.n)


def _check(n):
    if not isinstance(n, int) or n < 2:
        raise ValueError('cube size must be an integer of at least 2')


_FACTORS = (factorial(8), 3, factorial(12), 2, factorial(24),
            factorial(24) // 24 ** 6, 24 ** 6 // 2, factorial(24) // 2)


def _row(count, n):
    '''Exponents of _FACTORS whose product is the named count.

    large is the number of 24-slot orbit families, wings plus both
    centre kinds, and centres the number of centre orbits among them.
    The moves reach only the even permutations of a centre orbit
    (24!/2), and the 24^6/2 even shuffles of its six same-coloured
    quadruples leave the picture unchanged (24!/24^6 physical fillings).
    The orbits row is the quotient of the s_conf and group rows.
    '''
    _check(n)
    odd = n % 2
    if odd:
        large, centres = (n - 3) * (n + 1) // 4, (n - 3) * (n - 1) // 4
    else:
        large, centres = n * (n - 2) // 4, (n - 2) ** 2 // 4
    small = (1, 7, odd, 10 * odd)
    rows = {
        's_conf': (1, 8, odd, 12 * (n - 2), large, 0, 0, 0),
        'orbits': (0, 1, 0, 12 * (n - 2) - 10 * odd + centres, 0, 0, 0, 0),
        'group': small + (large - centres, 0, 0, centres),
        'stabilizer': (0, 0, 0, 0, 0, 0, centres, 0),
        's_phys': small + (large - centres, centres, 0, 0),
    }
    return rows[count]


def _value(count, n):
    return prod(factor ** k for factor, k in zip(_FACTORS, _row(count, n)))


def s_conf_size(n):
    '''Number of reassemblies: states reachable with a screwdriver.'''
    return _value('s_conf', n)


def group_order(n):
    '''Number of move-reachable sticker states.'''
    return _value('group', n)


def orbit_count(n):
    '''Number of reassembly classes the moves cannot mix.'''
    return _value('orbits', n)


def stabilizer_order(n):
    '''Number of sticker states painting any one physical configuration.

    Stickers of one colour inside a 24-slot centre orbit are mutually
    interchangeable; everything else is pinned down.
    '''
    return _value('stabilizer', n)


def s_phys_size(n):
    '''Number of physically distinct valid configurations.'''
    return _value('s_phys', n)


def count_digits(count, n):
    '''All decimal digits of the named count ('s_conf', 'orbits',
    'group', 'stabilizer' or 's_phys').

    str() of an int refuses more digits than the interpreter's limit
    and converts in quadratic time; the product is formed in decimal
    instead, at a precision above the row's digit count, with every
    rounding trapped so that a short precision raises rather than
    printing a wrong digit.
    '''
    row = _row(count, n)
    digits = int(sum(k * log10(f) for f, k in zip(_FACTORS, row))) + 1
    with decimal.localcontext() as context:
        context.prec = digits + 20
        context.Emax = decimal.MAX_EMAX
        for signal in (decimal.Inexact, decimal.Rounded, decimal.Overflow):
            context.traps[signal] = True
        value = prod(decimal.Decimal(f) ** k for f, k in zip(_FACTORS, row))
        return str(value)


@contextmanager
def _interval_digits(precision):
    from mpmath import iv
    saved = iv.dps
    iv.dps = precision
    try:
        yield
    finally:
        iv.dps = saved


def _bound_interval(n):
    '''Interval enclosure of ln(s_phys) / ln(6n) - 1, taken from the
    row's factor logarithms so no huge integer is ever built.'''
    from mpmath import iv
    ln_s_phys = sum((k * iv.log(iv.mpf(f))
                     for f, k in zip(_FACTORS, _row('s_phys', n)) if k),
                    iv.mpf(0))
    return ln_s_phys / iv.log(iv.mpf(6 * n)) - 1


def gods_number_lower_bound(n, precision=50):
    '''Certified lower bound on the worst-case quarter-turn solve length.

    The bound is log(s_phys_size(n)) / log(6n) - 1, the exponent below
    which 6n basic moves cannot reach every physical state; the quotient
    is base-invariant. precision is in significant decimal digits;
    raises PrecisionTooLow when the interval cannot pin the ceiling.
    '''
    from mpmath import ceil as mp_ceil, mpf
    with _interval_digits(precision):
        bound = _bound_interval(n)
        low, high = mpf(bound.a), mpf(bound.b)
    assert low > 0, 'the bound is positive from the smallest cube up'
    ceil_low, ceil_high = int(mp_ceil(low)), int(mp_ceil(high))
    if ceil_low != ceil_high:
        raise PrecisionTooLow(
            'ceiling ambiguous between %d and %d at %d digits'
            % (ceil_low, ceil_high, precision))
    return BoundResult(n=n, basic_move_count=6 * n, precision=precision,
                       bound=(low + high) / 2, ceiling=ceil_low)


def reduced_sequence_count(n, k):
    '''Number of reduced words of length k: 6n letters in 2n mutually
    excluding triples, no two consecutive letters from one triple.'''
    _check(n)
    if not isinstance(k, int) or k < 0:
        raise ValueError('word length must be a nonnegative integer')
    if k == 0:
        return 1
    return 6 * n * (6 * n - 3) ** (k - 1)


def tuned_lower_bound(n, precision=50):
    '''Lower bound from reduced words: the smallest k whose cumulative
    reduced word count reaches the physical state count. Never weaker
    than the plain bound, since reduced words are scarcer than raw
    ones.'''
    import mpmath
    target = s_phys_size(n)
    ratio = 6 * n - 3

    def reached(k):
        # 1 + sum of reduced_sequence_count(n, j) for j = 1..k: a
        # geometric sum with ratio 6n-3, so 6n-4 divides r^k - 1.
        return 1 + 6 * n * ((ratio ** k - 1) // (ratio - 1))

    # Logarithms place k within a step; the exact sums then settle it.
    k = max(0, ceil((log(target) + log(ratio - 1) - log(6 * n))
                    / log(ratio)))
    while reached(k) < target:
        k += 1
    while k and reached(k - 1) >= target:
        k -= 1
    return BoundResult(n=n, basic_move_count=6 * n, precision=precision,
                       bound=mpmath.mpf(k), ceiling=k)


def normalized_bound_ratio(n, precision=30):
    '''The bound scaled by log2(n)/n^2, the quantity whose convergence
    exhibits the quadratic-over-log growth of the bound.'''
    from mpmath import iv, mpf
    with _interval_digits(precision):
        ratio = (_bound_interval(n) * iv.log(iv.mpf(n))
                 / iv.log(iv.mpf(2)) / (iv.mpf(n) ** 2))
        return float(mpf(ratio.mid))


def normalized_bound_limit():
    '''The constant normalized_bound_ratio approaches as n grows.'''
    import mpmath
    return float(mpmath.log(_FACTORS[5], 2) / 4)
