"""Client population: prefixes, ISPs/organizations, platforms, host resources.

The unit of long-term aggregation in the paper is the /24 IP prefix (§4.2):
prefix-stable properties (geography, access type, enterprise path quality)
are what make problems *persistent*.  We therefore generate a population of
prefixes first — each with fixed network characteristics — and then sample
sessions from prefixes, so that repeated sessions from the same prefix see
the same underlying path quality.

The population reproduces the paper's §3 demographics: >93% of clients in
North America, the §3 browser/OS mix (via :mod:`repro.client.browsers`),
residential vs enterprise access (Table 4: enterprise paths have wildly
higher RTT variability; Fig. 9: most nearby tail-latency prefixes are
enterprises), and HTTP proxies that must be filtered in preprocessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..client.browsers import PlatformProfile, sample_platform, user_agent_string
from . import geo
from .randomness import bounded_lognormal, spawn, stable_hash64

__all__ = [
    "Prefix",
    "Client",
    "ClientPopulation",
    "PopulationConfig",
    "generate_population",
]

RESIDENTIAL_US_ISPS: Tuple[str, ...] = (
    "Comcast",
    "Verizon",
    "AT&T",
    "Charter",
    "Cox",
    "CenturyLink",
)


def _sampling_cdf(probabilities: Sequence[float]) -> np.ndarray:
    """The exact CDF array ``Generator.choice(p=...)`` builds per call.

    ``cdf.searchsorted(rng.random(), side="right")`` consumes the same
    single uniform draw and returns the same index as the equivalent
    ``rng.choice`` — precomputing it keeps hot sampling sites off numpy's
    per-call validation and cumsum.
    """
    p = np.asarray(probabilities, dtype=float)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


_CONN_TYPES: Tuple[str, ...] = ("cable", "fiber", "dsl")
_CONN_CDF = _sampling_cdf([0.6, 0.25, 0.15])
_CPU_CORES: Tuple[int, ...] = (2, 4, 8)
_CPU_CDF = _sampling_cdf([0.35, 0.45, 0.20])


@dataclass(frozen=True)
class Prefix:
    """A /24 client prefix with stable path characteristics.

    ``access_rtt_ms`` is the last-mile/access round-trip component;
    ``path_inflation_ms`` is extra round-trip latency from enterprise
    hairpins/VPNs or chronically bad routing (zero for healthy prefixes);
    ``jitter_sigma`` shapes the per-RTT lognormal noise (enterprise paths
    get large sigmas, producing the CV(SRTT) > 1 sessions of Table 4).
    """

    prefix_id: str
    geo: geo.GeoPoint
    country: str
    org: str
    access: str  # "residential" | "enterprise"
    conn_type: str  # "cable" | "fiber" | "dsl" | "corporate"
    access_rtt_ms: float
    path_inflation_ms: float
    jitter_sigma: float
    loss_rate_mean: float
    bandwidth_mean_kbps: float
    proxy_ip: Optional[str] = None
    #: transparent proxies rewrite both sides consistently (ISP middleboxes);
    #: non-transparent (enterprise) proxies are visible as an IP mismatch
    proxy_transparent: bool = False

    @property
    def is_enterprise(self) -> bool:
        return self.access == "enterprise"

    @property
    def behind_proxy(self) -> bool:
        return self.proxy_ip is not None

    def host_ip(self, host: int) -> str:
        """Dotted-quad address of a host inside this /24."""
        if not 0 < host < 255:
            raise ValueError("host must be in 1..254")
        base = self.prefix_id.split("/", 1)[0].rsplit(".", 1)[0]
        return f"{base}.{host}"


@dataclass(frozen=True)
class Client:
    """One session's client: a host inside a prefix plus local resources."""

    prefix: Prefix
    ip: str
    platform: PlatformProfile
    user_agent: str
    gpu: bool
    cpu_cores: int
    cpu_background_load: float  # fraction of total CPU consumed by other apps
    bandwidth_kbps: float

    @property
    def cdn_visible_ip(self) -> str:
        """The IP the CDN sees (the proxy's, if the prefix is proxied)."""
        return self.prefix.proxy_ip if self.prefix.proxy_ip else self.ip

    @property
    def beacon_ip(self) -> str:
        """The client IP recorded with player beacons.

        A transparent proxy rewrites the beacon path too, so both sides
        agree on the proxy's address; an explicit enterprise proxy leaks
        the internal address on the beacon side.
        """
        if self.prefix.proxy_ip and self.prefix.proxy_transparent:
            return self.prefix.proxy_ip
        return self.ip


@dataclass
class PopulationConfig:
    """Knobs for the synthetic client population."""

    n_prefixes: int = 4000
    us_fraction: float = 0.93  # §3: >93% of clients in North America (we use US)
    enterprise_fraction: float = 0.13
    #: fraction of enterprise prefixes with a chronically inflated path
    #: (hairpin/VPN) — these become the nearby tail-latency prefixes of Fig. 9
    enterprise_bad_path_fraction: float = 0.35
    #: proxies: most enterprise orgs front their clients with an HTTP proxy;
    #: a small share of residential ISPs also run transparent proxies (§3)
    enterprise_proxy_fraction: float = 0.35
    residential_proxy_fraction: float = 0.08
    n_enterprises: int = 15
    seed: int = 0


def _make_prefix_id(index: int) -> str:
    """Synthesize a unique, valid-looking /24 prefix id."""
    a = 10 + (index // (250 * 250)) % 240
    b = (index // 250) % 250 + 1
    c = index % 250 + 1
    return f"{a}.{b}.{c}.0/24"


def _residential_prefix(
    rng: np.random.Generator, index: int, city: geo.City, country: str, proxied: bool
) -> Prefix:
    """Build a residential prefix: low jitter, moderate access latency."""
    if country == "US":
        org = RESIDENTIAL_US_ISPS[int(rng.integers(0, len(RESIDENTIAL_US_ISPS)))]
    else:
        org = f"ISP-{country}-{int(rng.integers(1, 4))}"
    conn_type = _CONN_TYPES[int(_CONN_CDF.searchsorted(rng.random(), side="right"))]
    access_rtt = {
        "cable": bounded_lognormal(rng, 14.0, 0.4, 4.0, 60.0),
        "fiber": bounded_lognormal(rng, 6.0, 0.3, 2.0, 25.0),
        "dsl": bounded_lognormal(rng, 28.0, 0.4, 8.0, 90.0),
    }[conn_type]
    bandwidth = {
        "cable": bounded_lognormal(rng, 30_000.0, 0.6, 3_000.0, 300_000.0),
        "fiber": bounded_lognormal(rng, 80_000.0, 0.5, 10_000.0, 1_000_000.0),
        "dsl": bounded_lognormal(rng, 8_000.0, 0.5, 1_500.0, 40_000.0),
    }[conn_type]
    # Residential jitter is low: ~1% of sessions end up with CV(SRTT) > 1.
    jitter_sigma = bounded_lognormal(rng, 0.08, 0.5, 0.02, 0.5)
    # Transparent ISP proxies: one shared egress IP per ISP — both sides of
    # the instrumentation see the proxy's address, so these sessions are
    # only detectable by their absurd per-IP session volume (§3, rule ii).
    proxy_ip = f"203.0.113.{stable_hash64('proxy|' + org) % 250 + 1}" if proxied else None
    return Prefix(
        prefix_id=_make_prefix_id(index),
        geo=geo.jittered_point(rng, city),
        country=country,
        org=org,
        access="residential",
        conn_type=conn_type,
        access_rtt_ms=access_rtt,
        path_inflation_ms=0.0,
        jitter_sigma=jitter_sigma,
        loss_rate_mean=bounded_lognormal(rng, 0.004, 1.0, 0.0, 0.08),
        bandwidth_mean_kbps=bandwidth,
        proxy_ip=proxy_ip,
        proxy_transparent=True,
    )


def _enterprise_prefix(
    rng: np.random.Generator,
    index: int,
    city: geo.City,
    country: str,
    org: str,
    bad_path: bool,
    proxied: bool,
) -> Prefix:
    """Build an enterprise prefix: high jitter, possibly inflated path.

    Enterprise paths traverse middleboxes, VPN concentrators, and
    under-provisioned egress links — §4.2-1/2's explanation for both the
    close-by tail-latency prefixes and the CV(SRTT) > 1 sessions.
    """
    inflation = bounded_lognormal(rng, 110.0, 0.5, 40.0, 400.0) if bad_path else 0.0
    # Enterprise jitter is high: a large share of enterprise sessions
    # (~40% in the paper's Table 4) end up with CV(SRTT) > 1.
    jitter_sigma = bounded_lognormal(rng, 0.9, 0.6, 0.2, 3.0)
    # Explicit enterprise proxies: the CDN sees the org's egress IP while
    # the beacon reports the internal client address (§3, rule i).
    proxy_ip = f"198.51.100.{stable_hash64('proxy|' + org) % 250 + 1}" if proxied else None
    return Prefix(
        prefix_id=_make_prefix_id(index),
        geo=geo.jittered_point(rng, city, spread_km=8.0),
        country=country,
        org=org,
        access="enterprise",
        conn_type="corporate",
        access_rtt_ms=bounded_lognormal(rng, 18.0, 0.5, 5.0, 80.0),
        path_inflation_ms=inflation,
        jitter_sigma=jitter_sigma,
        loss_rate_mean=bounded_lognormal(rng, 0.006, 1.0, 0.0, 0.10),
        bandwidth_mean_kbps=bounded_lognormal(rng, 40_000.0, 0.8, 2_000.0, 500_000.0),
        proxy_ip=proxy_ip,
    )


@dataclass
class ClientPopulation:
    """The generated prefix pool plus helpers to sample per-session clients."""

    prefixes: Sequence[Prefix]
    config: PopulationConfig
    _weights: np.ndarray = field(init=False, repr=False)
    _cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.prefixes:
            raise ValueError("population must contain at least one prefix")
        # Session volume per prefix is itself skewed (a few big orgs and
        # dense residential prefixes generate many sessions).
        rng = spawn(self.config.seed, "prefix-weights")
        weights = rng.pareto(2.0, size=len(self.prefixes)) + 1.0
        self._weights = weights / weights.sum()
        # Sampling CDF precomputed once: rng.choice(p=...) cumsums the full
        # 4000-element weight vector on every single session otherwise.
        self._cdf = self._weights.cumsum()
        self._cdf /= self._cdf[-1]

    def sample_client(self, rng: np.random.Generator) -> Client:
        """Sample a session's client: prefix, host, platform, resources."""
        prefix = self.prefixes[int(self._cdf.searchsorted(rng.random(), side="right"))]
        platform = sample_platform(rng)
        gpu = bool(rng.random() < 0.35)
        cpu_cores = _CPU_CORES[int(_CPU_CDF.searchsorted(rng.random(), side="right"))]
        # Background CPU load: usually light, occasionally heavy.
        beta = float(rng.beta(1.3, 6.0))
        cpu_background_load = 0.0 if beta < 0.0 else (0.95 if beta > 0.95 else beta)
        bandwidth = bounded_lognormal(
            rng, prefix.bandwidth_mean_kbps, 0.35, 1_000.0, 1_000_000.0
        )
        return Client(
            prefix=prefix,
            ip=prefix.host_ip(int(rng.integers(1, 255))),
            platform=platform,
            user_agent=user_agent_string(platform),
            gpu=gpu,
            cpu_cores=cpu_cores,
            cpu_background_load=cpu_background_load,
            bandwidth_kbps=bandwidth,
        )


def generate_population(config: Optional[PopulationConfig] = None) -> ClientPopulation:
    """Generate the prefix population from a :class:`PopulationConfig`."""
    config = config or PopulationConfig()
    if config.n_prefixes <= 0:
        raise ValueError("n_prefixes must be positive")
    rng = spawn(config.seed, "population")

    # Enterprise orgs have skewed sizes (Table 4 spans 69 .. 11,731 sessions)
    # and each org is anchored to one US city (enterprises are campuses).
    org_names = [f"Enterprise#{i + 1}" for i in range(config.n_enterprises)]
    org_sizes = np.random.default_rng(config.seed + 1).pareto(1.2, config.n_enterprises) + 1.0
    org_sizes /= org_sizes.sum()
    org_cdf = org_sizes.cumsum()
    org_cdf /= org_cdf[-1]
    org_cities = [geo.sample_city(rng, geo.US_CLIENT_CITIES) for _ in org_names]

    prefixes: List[Prefix] = []
    for index in range(config.n_prefixes):
        enterprise = rng.random() < config.enterprise_fraction
        if enterprise:
            org_index = int(org_cdf.searchsorted(rng.random(), side="right"))
            bad_path = rng.random() < config.enterprise_bad_path_fraction
            proxied = rng.random() < config.enterprise_proxy_fraction
            prefixes.append(
                _enterprise_prefix(
                    rng,
                    index,
                    org_cities[org_index],
                    "US",
                    org_names[org_index],
                    bad_path,
                    proxied,
                )
            )
        else:
            in_us = rng.random() < config.us_fraction
            city = geo.sample_city(
                rng, geo.US_CLIENT_CITIES if in_us else geo.INTL_CLIENT_CITIES
            )
            proxied = rng.random() < config.residential_proxy_fraction
            prefixes.append(_residential_prefix(rng, index, city, city.country, proxied))
    return ClientPopulation(prefixes=prefixes, config=config)
