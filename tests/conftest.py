import pytest

from flatunitary import parse_family


@pytest.fixture(scope="session")
def mix():
    """Fermat quartic with a mixed first-order deformation term."""
    return parse_family("Y0^4 + Y1^4 + Y2^4 + T*Y0^2*Y1^2")


@pytest.fixture(scope="session")
def tfree():
    """Constant family of the Fermat quartic."""
    return parse_family("Y0^4 + Y1^4 + Y2^4")


@pytest.fixture(scope="session")
def hesse():
    """Hesse pencil of plane cubics."""
    return parse_family("Y0^3 + Y1^3 + Y2^3 + T*Y0*Y1*Y2")


@pytest.fixture(scope="session")
def mix_tt():
    """Fermat quartic with first- and second-order deformation terms."""
    return parse_family("Y0^4 + Y1^4 + Y2^4 + T*Y0^2*Y1^2 + T^2*Y0*Y1*Y2^2")


@pytest.fixture(scope="session")
def path_family():
    """Family whose kernel chain stays at rank two through a jumping point."""
    return parse_family("Y0^4 + Y1^4 + Y2^4 + T*Y0^3*Y1 + T^2*Y0^2*Y1^2")


@pytest.fixture(scope="session")
def septic():
    """Fermat septic with one T-monomial: at level 2 its chain ends with
    five theta-blind sections and two of classes theta sees."""
    return parse_family("Y0^7 + Y1^7 + Y2^7 + T*Y0^3*Y1^4")
