"""Primality of the prime p: deterministic Miller-Rabin."""

import pytest
import sympy

from igusa.cli import run
from igusa.context import PadicContext, is_prime


def _trial_division(m):
    return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [m for m in range(-3, 10**5) if is_prime(m)] == [
        m for m in range(-3, 10**5) if _trial_division(m)]


@pytest.mark.parametrize("m", [
    3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,  # strong pseudoprime to bases 2..31
    318665857834031151167461,  # only base 41 exposes it
])
def test_strong_pseudoprimes_are_composite(m):
    assert sum(sympy.factorint(m).values()) > 1
    assert not is_prime(m)


def test_at_the_bound_primality_is_refused():
    # the least strong pseudoprime to all 13 bases
    bound = 3317044064679887385961981
    assert sum(sympy.factorint(bound).values()) > 1
    for m in (bound, 10**30 + 57):
        with pytest.raises(ValueError, match=f"decided only below {bound}"):
            is_prime(m)
    assert not is_prime(bound + 1) and not is_prime(bound + 2)  # divisible by 2, by 3
    with pytest.raises(ValueError):
        PadicContext(bound, 2)


@pytest.mark.parametrize("m", [10**9 + 7, 10**14 + 31, 10**18 + 3, 2**61 - 1, 2**79 + 23])
def test_large_primes(m):
    assert sympy.isprime(m) and is_prime(m)


def test_a_large_p_is_refused_at_once(capsys, tmp_path):
    # q = p^2 lifts at level 1 exceed the Hensel budget: exit 2, no enumeration
    p = str(10**18 + 3)
    assert run(["count", "-f", "x*y", "--p", p, "-i", "1"]) == 2
    assert "lifts exceed budget" in capsys.readouterr().err
    zfile = tmp_path / "z.json"
    zfile.write_text(f'{{"p": {p}, "numerator": [["1", "1"]], "denominator": [{{"N": 1, "nu": 1}}]}}')
    assert run(["--json", "poles", "--zeta", str(zfile)]) == 0
    zfile.write_text('{"p": 3317044064679887385961981, "numerator": [["1", "1"]], '
                     '"denominator": [{"N": 1, "nu": 1}]}')
    assert run(["poles", "--zeta", str(zfile)]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
