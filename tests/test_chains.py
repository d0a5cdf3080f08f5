"""Chain construction, validation, perturbation tubes, kernel bounds."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kolkit import chains
from kolkit.chains import (
    ChainConstructionError,
    ChainSpec,
    NearDiagonalParams,
    box_volume_factor,
    build_chain,
    chain_lower_bound,
    default_k0,
    near_diagonal_kernel_min,
    perturbation_check,
    validate_chain,
)
from kolkit.coefficients import make_field
from kolkit.solver import Grid, SolverConfig, estimate_kernel

from conftest import assert_same_text

P = NearDiagonalParams()  # rho0 = 0.25, c0 = 0.05


def reference_perturbation_check(chain, samples_per_step=8, eta=None, seed=0, rtol=1e-12):
    """The corner screen on whole arrays, then random points of the tube: an
    independent check of the screen's proof, for no point may fail where the
    screen passed."""
    eta = chain.eta if eta is None else float(eta)
    xs, vs, k, dt, rho0 = chain.xs, chain.vs, chain.k, chain.dt, chain.rho0
    rad = eta * np.sqrt(chain.d)
    free = np.ones(k + 1)
    free[0] = free[-1] = 0.0

    inc = np.linalg.norm(vs[1:] - vs[:-1], axis=1)
    v_worst = inc + rad * np.sqrt(dt) * (free[:-1] + free[1:])
    if np.any(v_worst > rho0 * np.sqrt(dt) * (1.0 + rtol)):
        return False

    resid = np.linalg.norm(xs[1:] - xs[:-1] - dt * vs[:-1], axis=1)
    x_worst = resid + rad * dt**1.5 * (free[:-1] + free[1:]) + dt * rad * np.sqrt(dt) * free[:-1]
    if np.any(x_worst > rho0 * dt**1.5 * (1.0 + rtol)):
        return False

    if samples_per_step > 0:
        rng = np.random.default_rng(seed)
        shape = (samples_per_step, k + 1, chain.d)
        ux = rng.uniform(-1.0, 1.0, shape) * (eta * dt**1.5) * free[None, :, None]
        uv = rng.uniform(-1.0, 1.0, shape) * (eta * np.sqrt(dt)) * free[None, :, None]
        xi = xs[None] + ux
        et = vs[None] + uv
        dv = np.linalg.norm(et[:, 1:] - et[:, :-1], axis=2)
        if np.any(dv > rho0 * np.sqrt(dt) * (1.0 + rtol)):
            return False
        dxr = np.linalg.norm(xi[:, 1:] - xi[:, :-1] - dt * et[:, :-1], axis=2)
        if np.any(dxr > rho0 * dt**1.5 * (1.0 + rtol)):
            return False
    return True


def reference_centres(Xbar, Vbar, k):
    """The closed forms as single expressions; build_chain must give their bits."""
    Xbar, Vbar = np.asarray(Xbar, dtype=float), np.asarray(Vbar, dtype=float)
    mu = 6.0 * k * (Xbar * k - Vbar * (k - 1.0) / 2.0) / (k * k - 1.0)
    j = np.arange(k + 1, dtype=float)[:, None]
    vs = Vbar * (j / k) + mu * j * (k - j) / k**2
    xs = (1.0 / k) * (j * (j - 1.0)) * (Vbar / (2.0 * k) + (mu / (k * k)) * (k / 2.0 - (2.0 * j - 1.0) / 6.0))
    return xs, vs


def reference_positions(Vbar, mu, k):
    """The whole-array position formula; build_chain fills its blocks with these bits."""
    j = np.arange(k + 1, dtype=float)[:, None]
    jj1 = j * (j - 1.0) * (1.0 / k)
    cubic = k / 2.0 - (2.0 * j - 1.0) / 6.0
    xs = (mu / (k * k)) * cubic
    xs += Vbar / (2.0 * k)
    xs *= jj1
    return xs


def reference_validate_chain(chain):
    """The whole-array transport and increment checks, whose messages (values
    and step index) the blocked validate_chain must give."""
    xs, vs, dt = chain.xs, chain.vs, chain.dt
    scale = max(1.0, float(np.abs(xs).max()))
    worst_t = float(np.abs(xs[1:] - xs[:-1] - dt * vs[:-1]).max())
    if not (worst_t <= 1e-12 * scale):
        raise ValueError(f"transport recursion violated by {worst_t:.2e}")
    inc = np.sqrt(np.square(vs[1:] - vs[:-1]).sum(axis=1))
    bound = 0.5 * chain.rho0 * np.sqrt(dt)
    j = int(np.argmax(inc))
    if not (inc[j] <= bound * (1.0 + 1e-12)):
        raise ValueError(
            f"increment bound violated at step {j + 1}: |v_{j + 1} - v_{j}| = {inc[j]:.6e} > {bound:.6e}"
        )


def closed_form_chain(k, d=1):
    """A chain of any k steps on the closed forms (build_chain picks its own k)."""
    Xbar, Vbar = [0.2, -0.1][:d], [0.5, 0.3][:d]
    xs, vs = reference_centres(Xbar, Vbar, k)
    return ChainSpec(k=k, xs=xs, vs=vs, mu=np.zeros(d), eta=P.rho0 / (4.0 * np.sqrt(d)), rho0=P.rho0, k0=1.0)


def writable(chain):
    """The chain with its centre arrays writable again, for tests that tamper with them."""
    chain.xs.setflags(write=True)
    chain.vs.setflags(write=True)
    return chain


def chain_text(chain, kw=None):
    """The text ChainSpec.to_json writes, or given JSON keywords kw, its piece writer's text."""
    if kw is not None:
        return "".join(chain._json_chunks(**kw))
    fh = io.StringIO()
    chain.to_json(fh)
    return fh.getvalue()


def traced_peak(fn):
    """Bytes fn allocates at its peak above what was allocated before it, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


B = chains._BLOCK

# a target in d = 1 or 2 with |Xbar|, |Vbar| <= 1 per coordinate, and a small
# starting count so the chains stay short
TARGETS = st.integers(1, 2).flatmap(
    lambda d: st.tuples(
        st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d),
        st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d),
        st.floats(1.0, 64.0),
    )
)
# layouts of the piece writer; to_json writes the first, kolkit chain's chain.json
JSON_KW = [{"indent": 1}, {}, {"indent": 2}, {"indent": "\t"}, {"separators": (",", ":")}]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NearDiagonalParams(rho0=0.0)
        with pytest.raises(ValueError):
            NearDiagonalParams(rho0=1.5)
        with pytest.raises(ValueError):
            NearDiagonalParams(c0=-1.0)

    @pytest.mark.parametrize("rho0", [5e-324, 1e-300])
    def test_rho0_whose_square_underflows(self, rho0):
        # default_k0 divides by rho0^2
        with pytest.raises(ValueError, match="rho0"):
            NearDiagonalParams(rho0=rho0)

    @pytest.mark.parametrize("c0", [np.nan, np.inf])
    def test_c0_must_be_positive_and_finite(self, c0):
        with pytest.raises(ValueError, match="c0"):
            NearDiagonalParams(c0=c0)

    def test_default_k0(self):
        assert default_k0(P) == 4096.0


class TestBuildChain:
    def test_unit_velocity_target_default_k0(self):
        chain = build_chain([0.0], [1.0], P)
        # start count k0 * |target|^2 is already admissible
        assert chain.k == 4096
        assert chain.dt == pytest.approx(1.0 / 4096)
        assert chain.eta == pytest.approx(P.rho0 / 4.0)
        X, V = chain.xs[-1], chain.vs[-1]
        assert X[0] == pytest.approx(0.0, abs=1e-10)
        assert V[0] == pytest.approx(1.0, abs=1e-10)
        validate_chain(chain, target=([0.0], [1.0]))

    def test_minimal_chain_via_unit_k0(self):
        # searching upward from k=1 finds the true minimum step count
        chain = build_chain([0.0], [1.0], P, k0=1.0)
        assert chain.k == 1021
        validate_chain(chain, target=([0.0], [1.0]))

    def test_single_step_chain(self):
        chain = build_chain([0.0], [0.1], P, k0=1.0)
        assert chain.k == 1
        assert chain.xs.tolist() == [[0.0], [0.0]]
        assert chain.vs.tolist() == [[0.0], [0.1]]

    def test_unreachable_targets(self):
        # default k0 puts the starting count above the hard cap
        with pytest.raises(ChainConstructionError):
            build_chain([0.0], [16.0], P)
        # and a genuinely too-fast target exhausts the doubling search
        with pytest.raises(ChainConstructionError):
            build_chain([0.0], [40.0], P, k0=1.0)

    @pytest.mark.parametrize(
        "Xbar, k0", [([1e300], None), ([np.nan], None), ([0.0], np.inf)], ids=["overflow", "nan", "k0-inf"]
    )
    def test_start_count_beyond_the_cap_or_not_finite(self, Xbar, k0):
        # |Xbar|^2 overflows to inf, a NaN target gives a NaN count and inf k0 (with |target|^2 = 0.25) inf
        with pytest.raises(ChainConstructionError, match="start count"):
            build_chain(Xbar, [0.5], P, k0=k0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_chain([0.0, 0.0], [1.0], P)
        with pytest.raises(ValueError):
            build_chain([0.0], [1.0], P, k0=0.0)

    @settings(max_examples=60, deadline=None)
    @given(target=TARGETS)
    @example(target=([0.0], [4.0], 4096.0))  # k = 65,536: four blocks of nodes
    @example(target=([1.0, -1.0], [2.0, 1.5], 4096.0))  # k = 33,792 in d = 2
    # far targets, the endpoint exact to 1e-10 in float arithmetic alone
    @example(target=([12.0], [6.0], 4096.0))  # k = 737,280
    @example(target=([8.0, -8.0], [4.0, 3.0], 4096.0))  # k = 626,688 in d = 2
    def test_centres_are_the_closed_forms_bit_for_bit(self, target):
        c = build_chain(*target[:2], P, k0=target[2])
        if c.k > 1:
            xs, vs = reference_centres(*target[:2], c.k)
            assert np.array_equal(c.xs, xs) and np.array_equal(c.vs, vs)

    def test_blocked_positions_are_the_whole_array_formula(self):
        k = 2 * B + 1
        Xbar, Vbar = np.array([0.3, -0.7]), np.array([1.1, 0.4])
        mu = chains._mu_for(Xbar, Vbar, k)
        xs = np.empty((k + 1, 2))
        chains._positions(xs, Vbar, mu)
        assert np.array_equal(xs, reference_positions(Vbar, mu, k))

    def test_peak_memory_is_the_chain(self):
        # positions, velocities and the validation are made one block of nodes
        # at a time: no temporary the size of the chain
        out = []
        peak = traced_peak(lambda: out.append(build_chain([0.0], [10.0], P)))
        c = out[0]
        assert c.k == 409_600
        assert peak <= c.xs.nbytes + c.vs.nbytes + 2**20

    def test_two_dimensional_target(self):
        chain = build_chain([0.1, -0.2], [0.4, 0.3], P, k0=64.0)
        assert chain.d == 2
        X, V = chain.xs[-1], chain.vs[-1]
        assert np.allclose(X, [0.1, -0.2], atol=1e-10)
        assert np.allclose(V, [0.4, 0.3], atol=1e-10)

    def test_centres_are_read_only(self):
        # the shape and finiteness checks of ChainSpec hold for the chain's life
        c = build_chain([0.2], [0.5], P, k0=64.0)
        for name in ("xs", "vs", "mu"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(c, name)[-1] = np.nan


class TestValidateChain:
    def chain(self):
        return writable(build_chain([0.2], [0.5], P, k0=64.0))

    def test_tampered_position_breaks_transport(self):
        c = self.chain()
        c.xs[c.k // 2, 0] += 1e-3
        with pytest.raises(ValueError, match="transport"):
            validate_chain(c)

    def test_tampered_velocity_breaks_increment_bound(self):
        c = self.chain()
        c.vs[c.k // 2, 0] += 1.0
        with pytest.raises(ValueError, match="increment|transport"):
            validate_chain(c)

    def test_origin_and_endpoint_guards(self):
        c = self.chain()
        c.xs[0, 0] = 1e-3
        with pytest.raises(ValueError, match="origin"):
            validate_chain(c)
        with pytest.raises(ValueError, match="endpoint"):
            validate_chain(self.chain(), target=([0.2], [0.9]))

    @pytest.mark.parametrize("nodes", [("xs", "vs"), ("xs",), ("vs",)])
    def test_nan_centres_fail_every_check(self, nodes):
        # a NaN compares false with any bound, so each check must read not (value <= bound)
        c = self.chain()
        for name in nodes:
            getattr(c, name)[c.k // 2 if name == "xs" else c.k // 3, 0] = np.nan
        with pytest.raises(ValueError, match="transport|increment"):
            validate_chain(c)
        assert not perturbation_check(c)
        assert not perturbation_check(c, eta=0.0)

    def test_nan_last_velocity_fails_the_increment_bound(self):
        # the transport recursion never reads v_k, so only the increment check sees it
        c = self.chain()
        c.vs[-1, 0] = np.nan
        with pytest.raises(ValueError, match="increment"):
            validate_chain(c)
        assert not perturbation_check(c)

    @pytest.mark.parametrize(
        "tamper",
        [
            {"xs": [(B, 1e-3)]},  # a position at a block's first node
            {"xs": [(B - 1, 1e-3)]},  # and at the node carried into the next block
            {"kick": [(B, 1.0)]},  # the first step a block checks
            {"kick": [(B - 1, 1.0)]},  # the last step of a block
            {"kick": [(B // 2, 1.0), (B + 3, 2.0)]},  # the larger kick is in a later block
            {"kick": [(B // 2, 2.0), (B + 3, 1.0)]},  # the larger kick is in an earlier block
            {"vs": [(B, np.nan)]},
            {"xs": [(B - 1, np.nan)]},
            {"vs": [(2 * B, np.nan)]},  # the last node, alone in the last block
            {"kick": [(B // 2, 1.0)], "vs": [(2 * B, np.nan)]},  # a NaN beats any number
            {},
        ],
    )
    def test_messages_at_block_seams_are_the_whole_chains(self, tamper):
        c = writable(closed_form_chain(2 * B))  # nodes in blocks [0, B), [B, 2B) and [2B]
        for name in ("xs", "vs"):
            for node, delta in tamper.get(name, []):
                getattr(c, name)[node, 0] += delta
        for node, size in tamper.get("kick", []):
            # a velocity jump into node, the positions after it moved along, so
            # only the increment into node breaks
            kick = size * P.rho0 * np.sqrt(c.dt)
            c.vs[node:] += kick
            c.xs[node:] += np.arange(c.k + 1 - node)[:, None] * c.dt * kick
        try:
            reference_validate_chain(c)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                validate_chain(c)
            assert str(got.value) == str(e)
        else:
            assert not tamper
            validate_chain(c)

    def test_nan_endpoint_fails(self):
        c = self.chain()
        with pytest.raises(ValueError, match="endpoint"):
            validate_chain(c, target=([np.nan], [0.5]))


class TestChainSpec:
    def test_validation(self):
        xs = np.zeros((3, 1))
        vs = np.zeros((3, 1))
        with pytest.raises(ValueError, match="eta"):
            ChainSpec(k=2, xs=xs, vs=vs, mu=[0.0], eta=0.2, rho0=0.25, k0=1.0)
        with pytest.raises(ValueError, match="shape"):
            ChainSpec(k=3, xs=xs, vs=vs, mu=[0.0], eta=0.0625, rho0=0.25, k0=1.0)
        assert ChainSpec(k=2, xs=xs, vs=vs, mu=[0.0], eta=0.0625, rho0=0.25, k0=1.0).dt == 0.5

    def test_eta_is_bounded_by_the_built_radius(self):
        # in d = 2 a box point lies within eta sqrt(2) of its centre, so rho0/4 is too wide
        c = build_chain([1.0, 0.5], [2.0, 0.1], P)
        fields = dict(k=c.k, xs=c.xs, vs=c.vs, mu=c.mu, rho0=P.rho0, k0=c.k0)
        with pytest.raises(ValueError, match="eta"):
            ChainSpec(**fields, eta=P.rho0 / 4.0)
        assert ChainSpec(**fields, eta=P.rho0 / (4.0 * np.sqrt(2.0))).eta == c.eta
        # the screen would fail that radius, which the eta= override still admits
        assert not perturbation_check(c, eta=P.rho0 / 4.0)

    @pytest.mark.parametrize("field", ["xs", "vs", "mu"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_centres_must_be_finite(self, field, value):
        arrays = {"xs": np.zeros((3, 1)), "vs": np.zeros((3, 1)), "mu": np.zeros(1)}
        arrays[field].flat[-1] = value
        with pytest.raises(ValueError, match="finite"):
            ChainSpec(k=2, **arrays, eta=0.0625, rho0=0.25, k0=1.0)

    def test_serialization_truncates_long_chains(self):
        c = build_chain([0.0], [1.0], P, k0=1.0)  # k = 1021
        d = c.to_dict()
        assert d["node_stride"] == 1 and not d["node_indices_truncated"]
        assert len(d["centres"]["x"]) == c.k + 1
        long = closed_form_chain(2 * chains._MAX_NODES + 2)  # stride 3, whose rows miss the last node
        d = long.to_dict()
        assert d["node_stride"] == 3 and d["node_indices_truncated"]
        assert len(d["centres"]["x"]) == len(range(0, long.k + 1, 3)) + 1
        assert d["centres"]["x"][-1] == long.xs[-1].tolist()
        assert json.loads(chain_text(c)) == c.to_dict()  # round trips

    @settings(max_examples=60, deadline=None)
    @given(target=TARGETS, kw=st.sampled_from(JSON_KW))
    @example(target=([0.0], [0.1], 1.0), kw={"indent": 1})  # k = 1
    @example(target=([0.0, 0.0], [0.05, -0.1], 1.0), kw={"indent": 2})  # k = 1, d = 2
    def test_json_is_json_dumps_of_the_dict(self, target, kw):
        c = build_chain(*target[:2], P, k0=target[2])
        assert_same_text(chain_text(c), json.dumps(c.to_dict(), sort_keys=True, indent=1))
        assert_same_text(chain_text(c, kw), json.dumps(c.to_dict(), sort_keys=True, **kw))

    @pytest.mark.parametrize("indent", [None, 1, 2])
    def test_truncated_json_is_json_dumps_of_the_dict(self, indent):
        c = build_chain([0.0], [4.0], P)  # k = 65536: one node over the cap
        doc = c.to_dict()
        assert doc["node_stride"] == 2
        assert_same_text(chain_text(c), json.dumps(doc, sort_keys=True, indent=1))
        assert_same_text(chain_text(c, {"indent": indent}), json.dumps(doc, sort_keys=True, indent=indent))

    @pytest.mark.parametrize(
        "nodes, d",
        [(B - 1, 1), (B, 1), (B + 1, 1), (2 * B + 1, 1), (B + 1, 2), (2 * 65536 + 3, 1)],
        ids=["block-1", "block", "block+1", "2block+1", "block+1-d2", "stride3"],
    )
    @pytest.mark.parametrize("kw", JSON_KW, ids=lambda kw: json.dumps(kw))
    def test_json_pieces_join_to_json_dumps(self, tmp_path, nodes, d, kw):
        # pieces of _TEXT_ROWS rows: seams at a block, one row after it, and a
        # stride of 3 whose rows skip the last node, which is appended
        c = closed_form_chain(nodes - 1, d)
        doc = c.to_dict()
        idx = np.unique(np.r_[np.arange(0, nodes, doc["node_stride"]), nodes - 1])
        assert np.array_equal(doc["centres"]["x"], c.xs[idx]) and np.array_equal(doc["centres"]["v"], c.vs[idx])
        assert_same_text(chain_text(c, kw), json.dumps(doc, sort_keys=True, **kw))
        with open(tmp_path / "chain.json", "w") as fh:
            c.to_json(fh)
        assert_same_text((tmp_path / "chain.json").read_text(), json.dumps(doc, sort_keys=True, indent=1))

    def test_file_peak_memory_is_one_piece(self, tmp_path):
        peaks = {}
        for target in ([0.0], [3.0]), ([0.0], [10.0]):
            c = build_chain(*target, P)  # k = 36,864 and 409,600
            with open(tmp_path / "chain.json", "w") as fh:
                peaks[c.k] = traced_peak(lambda: c.to_json(fh))
        # the text is written piece by piece: the peak is one piece's, at any k
        assert max(peaks.values()) <= 2**20
        assert abs(peaks[409_600] - peaks[36_864]) <= 2**16

    @pytest.mark.parametrize("shape", [(2, 0), (2,), (2, 1, 1)])
    def test_centres_need_two_axes_and_a_dimension(self, shape):
        xs = np.zeros(shape)
        with pytest.raises(ValueError, match="shape"):
            ChainSpec(k=1, xs=xs, vs=xs, mu=[0.0], eta=0.0625, rho0=0.25, k0=1.0)


# rows whose squares, and their differences' squares, neither underflow nor overflow
NORMAL_RANGE = st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100) | st.just(0.0)


class TestStepNorms:
    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 2),
        rows=st.integers(2, 40),
        data=st.data(),
        dt=st.floats(1e-6, 1.0),
    )
    def test_norms_are_linalg_norms_bit_for_bit(self, d, rows, data, dt):
        x, v = (
            np.array(data.draw(st.lists(NORMAL_RANGE, min_size=rows * d, max_size=rows * d))).reshape(rows, d)
            for _ in range(2)
        )
        nan_row = data.draw(st.none() | st.integers(0, rows - 1))
        if nan_row is not None:
            v[nan_row, -1] = np.nan
        inc, resid = chains._step_norms(x, v, dt)
        want_inc = np.linalg.norm(v[1:] - v[:-1], axis=1)
        want_resid = np.linalg.norm(x[1:] - x[:-1] - dt * v[:-1], axis=1)
        for got, want in ((inc, want_inc), (resid, want_resid)):
            assert got.shape == want.shape
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()
        if nan_row is not None:
            # a NaN row makes both steps that touch it NaN, and the residual of the step it starts
            assert np.isnan(inc[max(nan_row - 1, 0) : nan_row + 1]).all()
            if nan_row < rows - 1:
                assert np.isnan(resid[nan_row])


class TestPerturbations:
    def test_default_tube_radius_passes(self):
        c = build_chain([0.0], [1.0], P, k0=64.0)
        assert perturbation_check(c)
        assert reference_perturbation_check(c, samples_per_step=4, seed=1)

    def test_default_tube_radius_passes_in_two_dimensions(self):
        # a box point lies within eta sqrt(d) of its centre, so the default
        # radius rho0 / (4 sqrt(d)) leaves the screen the same slack in any d
        c = build_chain([1.0, 0.5], [2.0, 0.1], P)  # k = 21,545
        assert c.eta == P.rho0 / (4.0 * np.sqrt(2.0))
        assert perturbation_check(c)

    def test_zero_radius_reduces_to_centre_checks(self):
        c = build_chain([0.1], [0.3], P, k0=64.0)
        assert perturbation_check(c, eta=0.0)

    def test_fat_tube_fails(self):
        # eta = rho0 leaves negative slack in the velocity inequality
        c = build_chain([0.0], [1.0], P, k0=64.0)
        assert not perturbation_check(c, eta=P.rho0)

    def test_endpoints_stay_fixed(self):
        # k = 1: both nodes are endpoints, so no tube radius moves the one step
        c = build_chain([0.0], [0.1], P, k0=1.0)
        assert perturbation_check(c, eta=10.0)
        assert reference_perturbation_check(c, eta=10.0, samples_per_step=4)

    def test_negative_radius_rejected(self):
        c = build_chain([0.0], [0.1], P, k0=1.0)
        for eta in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="tube radius"):
                perturbation_check(c, eta=eta)

    def test_negative_sample_count_rejected(self):
        # the screen bounds every point of the tube, so only 0 samples are accepted
        c = build_chain([0.0], [0.1], P, k0=1.0)
        for samples in (-5, 8):
            with pytest.raises(ValueError, match="samples_per_step must be 0.*every point of the tube"):
                perturbation_check(c, samples_per_step=samples)

    @settings(max_examples=60, deadline=None)
    @given(
        target=TARGETS,
        samples=st.sampled_from([0, 1, 4, 8]),
        seed=st.integers(0, 2**32 - 1),
        # tube radius relative to the default rho0/4: below, at and above it
        scale=st.sampled_from([0.0, 0.5, 1.0, 1.5, 4.0]),
    )
    def test_verdicts_match_reference(self, target, samples, seed, scale):
        # the corner screen bounds every point of the box (triangle inequality),
        # so the reference's random points never turn a verdict it passed
        c = build_chain(*target[:2], P, k0=target[2])
        eta = scale * P.rho0 / 4.0
        got = perturbation_check(c, eta=eta)
        assert got == reference_perturbation_check(c, samples_per_step=samples, eta=eta, seed=seed)

    def test_peak_memory_is_a_few_blocks(self):
        c = build_chain([0.0], [10.0], P)  # k = 409,600, the longest benchmark chain
        # the screen walks the chain in blocks, so its peak stays under one array of the chain's rows
        out = []
        peak = traced_peak(lambda: out.append(perturbation_check(c)))
        assert out == [True]
        assert peak < (c.k + 1) * c.d * 8

    @pytest.mark.parametrize("block", [1, 2])
    def test_steps_across_block_boundaries_are_checked(self, block):
        c = writable(build_chain([1.0, -1.0], [2.0, 1.5], P))  # d = 2, k = 33,792
        assert perturbation_check(c)
        assert reference_perturbation_check(c, samples_per_step=2)
        # a velocity jump into the block's first node, with the positions
        # after it moved along so only the step into that node breaks
        lo = block * chains._BLOCK
        assert lo < c.k
        kick = np.array([2.0 * P.rho0 * np.sqrt(c.dt), 0.0])
        c.vs[lo:] += kick
        c.xs[lo:] += np.arange(c.k + 1 - lo)[:, None] * c.dt * kick
        assert not reference_perturbation_check(c, samples_per_step=2)
        assert not perturbation_check(c)


class TestLowerBound:
    def test_single_step_equals_c0(self):
        c = build_chain([0.0], [0.1], P, k0=1.0)
        assert chain_lower_bound(c, P) == pytest.approx(P.c0, rel=1e-12)

    def test_log_and_linear_forms_agree(self):
        c = build_chain([0.0], [0.1], P, k0=1.0)
        assert chain_lower_bound(c, P, log=True) == pytest.approx(np.log(P.c0), rel=1e-12)

    def test_longer_chains_give_smaller_bounds(self):
        short = build_chain([0.0], [1.0], P, k0=1.0)  # k = 1021
        long = build_chain([0.0], [1.0], P)  # k = 4096
        lb_short = chain_lower_bound(short, P, log=True)
        lb_long = chain_lower_bound(long, P, log=True)
        assert lb_short > lb_long
        # both far below float range: the linear form underflows to zero
        assert chain_lower_bound(long, P) == 0.0

    def test_box_volume_factor(self):
        assert box_volume_factor(1) == 4.0
        assert box_volume_factor(2) == 16.0


KB_GRID = Grid(Lx=4.5, Lv=7.0, Nx=64, Nv=64)
KB_CFG = SolverConfig(dt=1.0 / 64, w0_cells=2.0, tail_tol=1.0)
KB_CONST = make_field("constant", {"value": 1.0})


@pytest.fixture(scope="module")
def unit_gap_estimate():
    return estimate_kernel((0.0, 0.0, 0.0), 1.0, KB_CONST, KB_GRID, KB_CFG)


class TestKernelBounds:

    def test_near_diagonal_minimum(self, unit_gap_estimate):
        m = near_diagonal_kernel_min(unit_gap_estimate, P)
        # exact constant-coefficient value at the worst lattice corner
        # is about 0.178; the discrete estimate must land nearby and
        # clear the calibration constant with room
        assert 0.15 < m < 0.2
        assert m >= P.c0
