"""Whole-sampler tests for both models: golden fixed-seed draws, invariants
over many sweeps, determinism, the engine's copy-and-check rule for draws,
parameter and data validation, and stage tagging of sweep failures."""

import hashlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from regimevol import (
    DataError,
    FrechetParams,
    InvGammaParams,
    JumpGibbsSampler,
    JumpParams,
    JumpPriors,
    NumericalError,
    ParameterError,
    StableGibbsSampler,
    StableModelParams,
    StablePriors,
    build_jump_priors,
    build_stable_priors,
    initial_jump_state,
    initial_stable_state,
    load_config,
    load_prices_csv,
    log_returns,
    run_chain,
    simulate_jump_model,
    simulate_stable_model,
)
from regimevol import jump_model, stable_model
from regimevol.mcmc import AdaptiveRw
from regimevol.regime import default_dirichlet_rows


def _jump_case():
    """Two states, jumps in state 2, free state means (so the mu_j MH steps run)."""
    rng = np.random.default_rng(101)
    true = JumpParams(mu=[0.0, 0.0], sigma1_sq=0.5, h_star=[5.0], theta=[0.1, 2.0],
                      n_jumps=[0, 0], b=40.0)
    ds = simulate_jump_model(true, np.array([[0.93, 0.07], [0.1, 0.9]]), None, 60, rng)
    priors = JumpPriors(k=1.0, sigma_prior=InvGammaParams(2.0, 0.5),
                        frechet=FrechetParams(2.0, 0.5), u=np.array([0.5, 4.0]),
                        dirichlet_rows=default_dirichlet_rows(2), fix_mean_zero=False)
    return ds.observations, priors, initial_jump_state(ds.observations, priors, b=40.0)


def _stable_case():
    rng = np.random.default_rng(201)
    true = StableModelParams(mu=[0.0, 0.0, 0.0], gamma1_sq=0.3, h_star=[3.0, 3.0],
                             lam=1.0, alpha=1.7)
    p = np.full((3, 3), 0.04)
    np.fill_diagonal(p, 0.92)
    ds = simulate_stable_model(true, p, None, 80, rng)
    priors = StablePriors(k=1.0, scale_prior=InvGammaParams(2.0, 0.5),
                          frechet=FrechetParams(2.0, 0.5),
                          dirichlet_rows=default_dirichlet_rows(3))
    return ds.observations, priors, initial_stable_state(ds.observations, priors, alpha=1.7)


def _draws_digest(chain) -> str:
    """SHA-256 over every kept draw: path, transition matrix and parameters,
    the formula the benchmark's draws hash uses."""
    h = hashlib.sha256()
    for d in chain.draws:
        h.update(np.ascontiguousarray(d.path).tobytes())
        h.update(np.ascontiguousarray(d.transition).tobytes())
        h.update(np.array(list(d.params.to_param_dict().values()), dtype=float).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# golden draws: 25 sweeps (10 adaptive) at a fixed seed must reproduce these
# values exactly; any change to the draw stream shows here first.  The mean
# filtered probabilities are compared to 1e-15: they are sums of filter
# output, whose last bits depend on the order the filter multiplies in.


JUMP_PATH = [
    1, 2, 2, 1, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 2, 1, 2, 2, 2, 2, 2,
]
JUMP_TRANSITION = [
    [0.03255848870922918, 0.9674415112907708],
    [0.21416743402287328, 0.7858325659771267],
]
JUMP_PARAMS = {
    "mu_1": -0.3401078674777506, "sigma_sq_1": 0.26121966096364274,
    "theta_1": 0.04261671488069945, "n_jumps_1": 0.0,
    "mu_2": -0.21060877114027798, "sigma_sq_2": 1.1484301107029262,
    "theta_2": 0.7122525088612084, "n_jumps_2": 1.0, "h_star_2": 4.396415286913522,
}
JUMP_ACCEPTANCE = {
    "sigma1_sq": (1, 3), "h_star_2": (11, 25), "mu_1": (1, 3), "mu_2": (8, 20),
}
JUMP_DIGEST = "0a29001135fe69278e8fe4ed765c12d879186d3c6608d79e47863547b9f2eabc"
JUMP_MEAN_FILTERED = np.array([
    0.5335971513078657, 0.4664028486921343, 0.08905603510888428, 0.9109439648911157,
    0.002232008273435365, 0.9977679917265649, 0.17500070505196674, 0.8249992949480334,
    0.10960834422579353, 0.8903916557742063, 0.27665042258602496, 0.7233495774139749,
    0.3174131131752875, 0.6825868868247126, 0.33855387545015314, 0.661446124549847,
    0.3436363106684626, 0.6563636893315375, 0.3142221893765182, 0.6857778106234819,
    0.12578854546254306, 0.8742114545374569, 0.002722788315323848, 0.9972772116846762,
    0.09347489129128794, 0.9065251087087121, 0.03251643017054141, 0.9674835698294586,
    0.23695035928660338, 0.7630496407133968, 0.28482560562862413, 0.7151743943713759,
    0.15652038294584816, 0.843479617054152, 0.09651869633009347, 0.9034813036699065,
    0.10436234658621832, 0.8956376534137818, 0.2704706978888135, 0.7295293021111865,
    0.12240974641919365, 0.8775902535808063, 0.22155853703744594, 0.7784414629625539,
    0.2078826409673494, 0.7921173590326505, 0.05288149438891187, 0.9471185056110881,
    0.2137155008273582, 0.7862844991726416, 0.018745769974292836, 0.9812542300257071,
    0.1582133582153138, 0.8417866417846861, 0.07255322976889476, 0.9274467702311052,
    3.637669866056518e-05, 0.9999636233013394, 0.21030904272360645, 0.7896909572763935,
    0.22305018034843693, 0.7769498196515631, 0.03158242228395628, 0.9684175777160436,
    0.03754753783993277, 0.9624524621600671, 0.0018774290849490724, 0.9981225709150507,
    0.02040581228507483, 0.9795941877149252, 0.14580022020651726, 0.8541997797934826,
    0.1650222574890376, 0.8349777425109626, 0.2998492715617667, 0.7001507284382332,
    0.00715874158498417, 0.9928412584150157, 0.043755415810541876, 0.9562445841894581,
    0.03217579269858294, 0.967824207301417, 0.24119812520926764, 0.7588018747907325,
    0.22762474715858058, 0.7723752528414195, 0.2995612568246083, 0.7004387431753918,
    0.01765512660557324, 0.9823448733944268, 0.24944516029736838, 0.7505548397026316,
    0.12878511165045078, 0.8712148883495492, 0.2919256589697522, 0.7080743410302478,
    0.2085094877489871, 0.791490512251013, 0.3103634861020082, 0.6896365138979916,
    0.3205202075873675, 0.6794797924126326, 0.0005335002667007055, 0.9994664997332994,
    0.24619059088364686, 0.7538094091163532, 0.0002452057249126734, 0.9997547942750873,
    0.24609603279259734, 0.7539039672074026, 0.2905868432142626, 0.7094131567857375,
    0.004816432119575573, 0.9951835678804244, 0.0512260682122189, 0.9487739317877811,
    0.17295823034563132, 0.8270417696543685, 0.2256895623722448, 0.7743104376277554,
]).reshape(60, 2)

STABLE_PATH = [
    1, 1, 2, 2, 1, 2, 2, 1, 1, 2, 1, 1, 2, 2, 3, 1, 2, 2, 1, 1, 1, 1, 1, 2, 1, 2, 2, 2, 1, 2,
    2, 1, 2, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 2, 1, 1, 2, 1, 1, 1, 2, 1, 1, 2, 1, 2, 1, 2, 2,
    1, 2, 2, 2, 3, 1, 3, 3, 3, 2, 2, 1, 1, 2, 1, 2, 2, 2, 1, 1,
]
STABLE_TRANSITION = [
    [0.41945435223205035, 0.4901344491667789, 0.09041119860117072],
    [0.4037425841845093, 0.520501809729067, 0.0757556060864236],
    [0.0625605994760592, 0.09328257229427267, 0.8441568282296682],
]
STABLE_PARAMS = {
    "lambda": 1.530567028808033,
    "mu_1": -0.2571170299639549, "gamma_sq_1": 0.33576511131281533,
    "mu_2": -0.055789680204130054, "gamma_sq_2": 1.4594338591261717,
    "mu_3": -0.6563261013720671, "gamma_sq_3": 8.138311399343007,
    "h_star_2": 4.346591739147344, "h_star_3": 5.576348217805346,
}
STABLE_ACCEPTANCE = {"lambda": (7, 25), "h_star_2": (14, 25), "h_star_3": (16, 25)}
STABLE_DIGEST = "c555a2f964c4c2077d4bfa1096eff5733229f7e33408f7d18209bc52f956656a"
STABLE_MEAN_FILTERED = np.array([
    0.5692229005966083, 0.2899817044549407, 0.1407953949484511, 0.7495980680059783,
    0.1936324155116644, 0.056769516482357424, 0.004823625487552274, 0.7487626826417682,
    0.24641369187067955, 0.09656567507767579, 0.6458256818835799, 0.25760864303874437,
    0.6355801287823122, 0.21298788157623388, 0.15143198964145407, 0.7091592286149029,
    0.19255356875341162, 0.09828720263168565, 0.45053275640833584, 0.45556853014208176,
    0.09389871344958234, 0.7176867560839129, 0.20232194633519007, 0.07999129758089708,
    0.7776891704871292, 0.1757194426044289, 0.046591386908442035, 0.30291097445255544,
    0.6104558702958712, 0.08663315525157335, 0.7247496147211238, 0.20401285442553277,
    0.07123753085334342, 0.7470499566294154, 0.2107207733187973, 0.042229270051787296,
    0.7377980097813039, 0.20219418541311449, 0.06000780480558175, 0.13649101975457345,
    0.7407858605683532, 0.1227231196770735, 0.6849404998248841, 0.25372871266129127,
    0.061330787513824564, 0.5677863377732019, 0.37379137123423534, 0.05842229099256265,
    0.7464387756859627, 0.19590844700722215, 0.05765277730681495, 0.040482284268411786,
    0.80198017300552, 0.1575375427260681, 0.7111270935107377, 0.2216168849745242,
    0.06725602151473817, 0.6534114868421791, 0.2959570560985407, 0.05063145705928011,
    0.7700902392565818, 0.19295934122495612, 0.03695041951846211, 0.5633652105843692,
    0.38431838428247345, 0.052316405133157405, 0.7755693139505327, 0.18288971535863807,
    0.04154097069082906, 0.7173952565007541, 0.24447945951504346, 0.038125283984202604,
    0.5801100565713401, 0.3684814048935154, 0.051408538535144564, 0.22192639065265196,
    0.6793380890284831, 0.09873552031886498, 0.0016279449673390336, 0.6414648029219859,
    0.3569072521106749, 0.2433545836461684, 0.5066045480023299, 0.25004086835150174,
    0.28111652639183105, 0.5271024372465707, 0.19178103636159818, 0.0656159163655913,
    0.3050253094016479, 0.6293587742327608, 0.34843914478503524, 0.2914506443375796,
    0.3601102108773852, 0.6528649395282557, 0.18049373269404623, 0.166641327777698,
    0.6887173254441347, 0.22937720716071183, 0.08190546739515339, 0.7347942064275483,
    0.19283770708794706, 0.07236808648450442, 0.409634971483848, 0.31157874365522636,
    0.27878628486092577, 0.7176874158040544, 0.1668263597850773, 0.11548622441086845,
    0.5797696144396494, 0.33687308918325287, 0.08335729637709781, 0.5061300265909169,
    0.41375763273573424, 0.08011234067334892, 0.6772139400303366, 0.2678925504328893,
    0.05489350953677426, 0.7754945044315943, 0.18280071594726285, 0.041704779621142656,
    0.7156609193118636, 0.24567702443037445, 0.038662056257761944, 0.35742852247566254,
    0.5673911329087016, 0.07518034461563577, 0.2391017392824422, 0.6494538855454142,
    0.11144437517214364, 0.35197562557064443, 0.5367172522890425, 0.111307122140313,
    0.002554947983633758, 0.6783727804893775, 0.31907227152698864, 0.6473588703526422,
    0.22425748263713718, 0.12838364701022054, 0.6153684850646012, 0.3052585208459189,
    0.0793729940894799, 0.7610812453665018, 0.19239425492108408, 0.04652449971241405,
    0.7773877658532294, 0.1872417069266342, 0.03537052722013623, 0.5130971755095977,
    0.429379798974485, 0.057523025515917245, 0.571598688712982, 0.27431282199182444,
    0.15408848929519336, 0.008327824612507929, 0.6833026195079434, 0.30836955587954856,
    0.6784080315623294, 0.19574166167620446, 0.125850306761466, 0.7554971749996476,
    0.18707081068314238, 0.05743201431720974, 0.6939169554707195, 0.2601796452558051,
    0.04590339927347543, 0.6365822995368549, 0.2513116279336305, 0.11210607252951466,
    0.5110009697457375, 0.39980189372473085, 0.08919713652953151, 0.23130663235458027,
    0.6476598334335948, 0.12103353421182507, 0.7224124498155439, 0.21702920939481984,
    0.06055834078963626, 0.20203354596859466, 0.6936352147328826, 0.10433123929852271,
    0.7216133101654882, 0.2237586696977943, 0.0546280201367175, 0.0001625481121251523,
    0.10447643381616958, 0.8953610180717052, 0.27747660311386013, 0.23355690238089066,
    0.48896649450524937, 0.5700326662658549, 0.21353065815102437, 0.21643667558312057,
    6.362566954308248e-29, 2.154147056900543e-06, 0.9999978458529432, 0.353090375401723,
    0.13123182477557735, 0.5156777998226996, 0.5395592068407509, 0.22948008961576202,
    0.23096070354348716, 0.18537035861849402, 0.5976584338739944, 0.21697120750751128,
    0.36013683057043405, 0.47662746562345615, 0.16323570380610977, 0.5715121037380112,
    0.24829492446783422, 0.18019297179415458, 0.6379084469056248, 0.26839759242684386,
    0.09369396066753141, 0.6896015588847526, 0.25227099134230807, 0.05812744977293946,
    0.7797213042299209, 0.17932582426126822, 0.040952871508810794, 0.7761523129357092,
    0.1805433407606282, 0.04330434630366258, 0.7905700965292871, 0.17209908695162154,
    0.03733081651909124, 0.7771246478649806, 0.1801608054248503, 0.04271454671016898,
    0.6689014240181081, 0.23691033581408835, 0.0941882401678036, 0.7566236590330798,
    0.1791923572537482, 0.06418398371317192, 0.7812449732242578, 0.1794945725232939,
    0.039260454252448174, 0.7850790693215586, 0.17533856746374882, 0.03958236321469248,
]).reshape(80, 3)


@pytest.mark.parametrize(
    "sampler_cls, case, seed, expected",
    [
        (JumpGibbsSampler, _jump_case, 102,
         (JUMP_PATH, JUMP_TRANSITION, JUMP_PARAMS, JUMP_ACCEPTANCE, JUMP_DIGEST,
          JUMP_MEAN_FILTERED)),
        (StableGibbsSampler, _stable_case, 202,
         (STABLE_PATH, STABLE_TRANSITION, STABLE_PARAMS, STABLE_ACCEPTANCE, STABLE_DIGEST,
          STABLE_MEAN_FILTERED)),
    ],
    ids=["jump", "stable"],
)
def test_golden_draws(sampler_cls, case, seed, expected):
    path, transition, params, acceptance, digest, mean_filtered = expected
    data, priors, init = case()
    sampler = sampler_cls(data, priors, adapt_iters=10)
    chain = run_chain(sampler.sweep, init, 25, 10, np.random.default_rng(seed),
                      acceptance=sampler.acceptance)
    last = chain.draws[-1]
    assert last.path.tolist() == path
    assert last.transition.tolist() == transition
    assert last.params.to_param_dict() == params
    assert chain.acceptance == acceptance
    assert _draws_digest(chain) == digest
    np.testing.assert_allclose(sampler.mean_filtered_probs, mean_filtered, rtol=0, atol=1e-15)


@pytest.mark.parametrize("sampler_cls, case, seed", [
    (JumpGibbsSampler, _jump_case, 102), (StableGibbsSampler, _stable_case, 202),
], ids=["jump", "stable"])
def test_the_engine_adapts_the_walks_during_burn_in_only(sampler_cls, case, seed):
    data, priors, state = case()
    sampler = sampler_cls(data, priors, adapt_iters=10)
    walks = sampler.samplers
    start = {name: w.scale for name, w in walks.items()}
    rng = np.random.default_rng(seed)
    for _ in range(10):
        state = sampler.sweep(state, rng)
        assert all(w.adapting for w in walks.values())
    assert any(w.scale != start[name] for name, w in walks.items())
    frozen = {name: w.scale for name, w in walks.items()}
    attempts = {name: w.attempts for name, w in walks.items()}
    for _ in range(15):
        state = sampler.sweep(state, rng)
        assert {name: w.scale for name, w in walks.items()} == frozen
        assert not any(w.adapting for w in walks.values())
    assert all(w.attempts > attempts[name] for name, w in walks.items())


# ---------------------------------------------------------------------------
# stable sampler over many sweeps


@pytest.mark.parametrize("lambda_floor", [None, 2.0], ids=["default-floor", "floor-above-1"])
def test_stable_sweep_preserves_invariants(lambda_floor):
    data, priors, state = _stable_case()
    if lambda_floor is not None:
        # a chain that started at lambda = 1 below this floor never moved
        priors = replace(priors, lambda_floor=lambda_floor)
        state = initial_stable_state(data, priors, alpha=1.7)
    sampler = StableGibbsSampler(data, priors, adapt_iters=100)
    rng = np.random.default_rng(203)
    for _ in range(400):
        state = sampler.sweep(state, rng)
        params = state.params
        assert np.all(np.diff(params.gamma_sq) > 0)
        assert np.all(params.h_star > 1.0)
        assert params.lam >= priors.lambda_floor
        assert np.all(np.isfinite(params.mu))
        np.testing.assert_allclose(state.transition.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(state.transition >= 0)
        assert state.path.min() >= 1 and state.path.max() <= 3
    accepted, attempts = sampler.acceptance()["lambda"]
    assert 0 < accepted < attempts
    probs = sampler.mean_filtered_probs
    assert probs.shape == (data.size, 3)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_stable_sweep_deterministic_given_seed():
    data, priors, init = _stable_case()

    def one_run():
        sampler = StableGibbsSampler(data, priors, adapt_iters=10)
        state = init
        r = np.random.default_rng(204)
        for _ in range(30):
            state = sampler.sweep(state, r)
        return state, sampler.acceptance()

    (a, acc_a), (b, acc_b) = one_run(), one_run()
    np.testing.assert_array_equal(a.path, b.path)
    np.testing.assert_array_equal(a.transition, b.transition)
    assert a.params.to_param_dict() == b.params.to_param_dict()
    assert acc_a == acc_b


def test_a_warm_stable_sweep_allocates_under_two_emission_matrices():
    # the filter, the path draw and the emission write into the chain's
    # workspace; a sweep at T = 5000 used to allocate and free about ten
    # emission matrices
    t_len, m = 5000, 4
    rng = np.random.default_rng(205)
    true = StableModelParams(mu=np.zeros(m), gamma1_sq=0.5e-4, h_star=[3.0] * (m - 1),
                             lam=1.0, alpha=1.7)
    p = np.full((m, m), 0.01)
    np.fill_diagonal(p, 0.97)
    y = simulate_stable_model(true, p, None, t_len, rng).observations
    priors = build_stable_priors(load_config(model="stable", seed=0, states=m), y)
    sampler = StableGibbsSampler(y, priors, adapt_iters=2)
    state = initial_stable_state(y, priors)
    for _ in range(3):
        state = sampler.sweep(state, rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sampler.sweep(state, rng)
        transient = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    emission = t_len * m * 8
    assert transient < 2 * emission, transient / emission


# ---------------------------------------------------------------------------
# stage tagging: sweep failures keep their class and their object


def test_state_step_parameter_error_fails_at_iteration_0_as_parameter_error(monkeypatch):
    def failing_filter(*args, **kwargs):
        raise ParameterError("transition matrix rows must sum to 1")

    monkeypatch.setattr(jump_model, "hamilton_filter", failing_filter)
    data, priors, init = _jump_case()
    sampler = JumpGibbsSampler(data, priors)
    with pytest.raises(ParameterError) as info:
        run_chain(sampler.sweep, init, 5, 0, np.random.default_rng(0))
    exc = info.value
    assert type(exc) is ParameterError
    assert exc.stage == "state_path" and exc.iteration == 0
    assert str(exc) == (
        "sweep failed at iteration 0, stage state_path: transition matrix rows must sum to 1"
    )


def test_failing_stage_and_iteration_are_named(monkeypatch):
    data, priors, init = _jump_case()
    calls = []
    original = jump_model.sample_theta_j

    def failing_theta(j, *args, **kwargs):
        calls.append(j)
        if j == 2 and len(calls) > 6:  # two theta updates per sweep: iteration 3
            raise NumericalError("rate exploded")
        return original(j, *args, **kwargs)

    monkeypatch.setattr(jump_model, "sample_theta_j", failing_theta)
    sampler = JumpGibbsSampler(data, priors)
    with pytest.raises(NumericalError, match=r"iteration 3, stage theta_2: rate exploded") as info:
        run_chain(sampler.sweep, init, 10, 0, np.random.default_rng(0))
    assert info.value.stage == "theta_2" and info.value.iteration == 3

    # a sweep called on its own tags the stage only
    with pytest.raises(NumericalError, match=r"^stage theta_2: rate exploded$"):
        sampler.sweep(init, np.random.default_rng(0))


class _TwoArgError(Exception):
    """Stands for exceptions whose constructor takes more than a message,
    such as numpy's out-of-memory error (shape, dtype)."""

    def __init__(self, shape, dtype):
        super().__init__(shape, dtype)


def test_foreign_exception_passes_through_unchanged(monkeypatch):
    data, priors, init = _stable_case()
    err = _TwoArgError((80, 3), "float64")

    def failing_lambda(*args, **kwargs):
        raise err

    monkeypatch.setattr(stable_model, "sample_lambda", failing_lambda)
    sampler = StableGibbsSampler(data, priors)
    with pytest.raises(_TwoArgError) as info:
        run_chain(sampler.sweep, init, 5, 0, np.random.default_rng(0))
    assert info.value is err
    assert info.value.args == ((80, 3), "float64")


# ---------------------------------------------------------------------------
# the engine's draw rule: update writes into a copy, the sweep checks it once

CASES = [(JumpGibbsSampler, _jump_case), (StableGibbsSampler, _stable_case)]
CASE_IDS = ["jump", "stable"]


def _snapshot(state):
    arrays = {k: np.array(v, copy=True) for k, v in vars(state.params).items()}
    return state.path.copy(), state.transition.copy(), arrays


def _assert_unchanged(state, snapshot):
    path, transition, arrays = snapshot
    np.testing.assert_array_equal(state.path, path)
    np.testing.assert_array_equal(state.transition, transition)
    assert vars(state.params).keys() == arrays.keys()
    for name, value in vars(state.params).items():
        np.testing.assert_array_equal(value, arrays[name], err_msg=name)


@pytest.mark.parametrize("sampler_cls, case", CASES, ids=CASE_IDS)
def test_returned_draws_are_never_changed(sampler_cls, case):
    # the jump case frees the state means, so the mu loop writes too
    data, priors, init = case()
    sampler = sampler_cls(data, priors, adapt_iters=5)
    returned = [(init, _snapshot(init))]

    def sweep(state, rng):
        out = sampler.sweep(state, rng)
        returned.append((out, _snapshot(out)))
        return out

    chain = run_chain(sweep, init, 15, 5, np.random.default_rng(3))
    assert [d for d, _ in returned[-10:]] == chain.draws
    for state, snapshot in returned:
        _assert_unchanged(state, snapshot)


@pytest.mark.parametrize(
    "sampler_cls, case, module, name",
    [
        (JumpGibbsSampler, _jump_case, jump_model, "sample_h_star_j"),
        (StableGibbsSampler, _stable_case, stable_model, "sample_stable_h_star_j"),
    ],
    ids=CASE_IDS,
)
def test_invalid_update_is_caught_by_the_sweep_check(monkeypatch, sampler_cls, case, module,
                                                     name):
    data, priors, init = case()
    per_sweep = priors.n_states - 1
    original = getattr(module, name)
    calls = []

    def bad_at_iteration_2(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2 * per_sweep + 1:  # first h* update of iteration 2
            return 1.0
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, bad_at_iteration_2)
    sampler = sampler_cls(data, priors)
    with pytest.raises(ParameterError, match="multiplier h\\* must be finite and exceed 1") as info:
        run_chain(sampler.sweep, init, 5, 0, np.random.default_rng(0))
    assert type(info.value) is ParameterError
    assert info.value.stage == "validate" and info.value.iteration == 2


@pytest.mark.parametrize("sampler_cls, case", CASES, ids=CASE_IDS)
def test_a_sweep_builds_at_most_two_parameter_objects(monkeypatch, sampler_cls, case):
    data, priors, state = case()
    params_cls = type(state.params)
    original = params_cls.__post_init__
    built = []

    def counting(self):
        built.append(None)
        original(self)

    monkeypatch.setattr(params_cls, "__post_init__", counting)
    sampler = sampler_cls(data, priors, adapt_iters=3)
    rng = np.random.default_rng(4)
    for _ in range(6):
        before = len(built)
        state = sampler.sweep(state, rng)
        assert len(built) - before <= 2


# ---------------------------------------------------------------------------
# parameter and data validation

_JUMP_FIELDS = dict(mu=[0.0, 0.0], sigma1_sq=0.5, h_star=[5.0], theta=[0.1, 2.0],
                    n_jumps=[0, 0], b=40.0)
_STABLE_FIELDS = dict(mu=[0.0, 0.0, 0.0], gamma1_sq=0.3, h_star=[3.0, 3.0], lam=1.0,
                      alpha=1.7)
_JUMP_PRIOR_FIELDS = dict(k=1.0, sigma_prior=InvGammaParams(2.0, 0.5),
                          frechet=FrechetParams(2.0, 0.5), u=[0.5, 1.0],
                          dirichlet_rows=np.ones((2, 2)))
_STABLE_PRIOR_FIELDS = dict(k=1.0, scale_prior=InvGammaParams(2.0, 0.5),
                            frechet=FrechetParams(2.0, 0.5), dirichlet_rows=np.ones((2, 2)),
                            lambda_floor=1e-6)
_GAMMA_FIELDS = dict(shape=2.0, rate=1.0)


_BAD_FIELDS = [
    (JumpParams, _JUMP_FIELDS, "mu", [np.nan, 0.0]),
    (JumpParams, _JUMP_FIELDS, "sigma1_sq", np.inf),
    (JumpParams, _JUMP_FIELDS, "h_star", [np.nan]),
    (JumpParams, _JUMP_FIELDS, "theta", [0.1, np.nan]),
    (JumpParams, _JUMP_FIELDS, "b", np.inf),
    (JumpParams, _JUMP_FIELDS, "n_jumps", [0, 1.5]),
    (JumpParams, _JUMP_FIELDS, "n_jumps", [0, np.nan]),
    (StableModelParams, _STABLE_FIELDS, "mu", [0.0, np.inf, 0.0]),
    (StableModelParams, _STABLE_FIELDS, "gamma1_sq", np.nan),
    (StableModelParams, _STABLE_FIELDS, "h_star", [3.0, np.nan]),
    (StableModelParams, _STABLE_FIELDS, "lam", np.inf),
    (StableModelParams, _STABLE_FIELDS, "alpha", np.nan),
    (JumpPriors, _JUMP_PRIOR_FIELDS, "k", np.inf),
    (JumpPriors, _JUMP_PRIOR_FIELDS, "u", [np.nan, 1.0]),
    (JumpPriors, _JUMP_PRIOR_FIELDS, "u", [0.5, np.inf]),
    (JumpPriors, _JUMP_PRIOR_FIELDS, "dirichlet_rows", [[1.0, np.nan], [1.0, 1.0]]),
    (StablePriors, _STABLE_PRIOR_FIELDS, "k", np.nan),
    (StablePriors, _STABLE_PRIOR_FIELDS, "dirichlet_rows", [[1.0, 1.0], [np.inf, 1.0]]),
    (StablePriors, _STABLE_PRIOR_FIELDS, "lambda_floor", np.inf),
    (InvGammaParams, _GAMMA_FIELDS, "shape", np.inf),
    (InvGammaParams, _GAMMA_FIELDS, "rate", np.nan),
    (FrechetParams, dict(shape=2.0, scale=0.5), "shape", np.nan),
    (FrechetParams, dict(shape=2.0, scale=0.5), "scale", np.inf),
]


_BAD_IDS = [f"{cls.__name__}.{name}" for cls, _, name, _ in _BAD_FIELDS]
# a field with several cases shows its value in the id
_BAD_IDS = [i if _BAD_IDS.count(i) == 1 else f"{i}={case[3]}".replace(" ", "")
            for i, case in zip(_BAD_IDS, _BAD_FIELDS)]


@pytest.mark.parametrize("params_cls, fields, name, value", _BAD_FIELDS, ids=_BAD_IDS)
def test_parameters_reject_nan_and_inf(params_cls, fields, name, value):
    params_cls(**fields)  # the valid base
    with pytest.raises(ParameterError):
        params_cls(**{**fields, name: value})


@pytest.mark.parametrize("priors_cls, fields", [
    (JumpPriors, {**_JUMP_PRIOR_FIELDS, "u": [0.5, 1.0, 2.0], "dirichlet_rows": np.ones((4, 4))}),
    (StablePriors, {**_STABLE_PRIOR_FIELDS, "dirichlet_rows": np.ones((3, 4))}),
], ids=["JumpPriors", "StablePriors"])
def test_priors_reject_a_transition_prior_of_the_wrong_shape(priors_cls, fields):
    # refused at construction, not at the first sweep's transition draw
    with pytest.raises(ParameterError, match=r"must be \(3, 3\), got shape \((4, 4|3, 4)\)"):
        priors_cls(**fields)


@pytest.mark.parametrize("priors_cls, fields", [
    (JumpPriors, {**_JUMP_PRIOR_FIELDS, "u": [], "dirichlet_rows": np.ones((0, 0))}),
    (StablePriors, {**_STABLE_PRIOR_FIELDS, "dirichlet_rows": np.ones((0, 0))}),
], ids=["JumpPriors", "StablePriors"])
def test_priors_refuse_zero_states(priors_cls, fields):
    # JumpPriors used to raise IndexError in its intensity-cap check, and
    # StablePriors was accepted until the start state raised IndexError
    with pytest.raises(ParameterError, match="at least one state"):
        priors_cls(**fields)


@pytest.mark.parametrize("update, case", [
    (jump_model.sample_h_star_j, _jump_case),
    (stable_model.sample_stable_h_star_j, _stable_case),
], ids=["jump", "stable"])
def test_h_star_index_outside_2_to_m_is_a_parameter_error(update, case):
    data, priors, state = case()
    m = priors.n_states
    for j in (1, m + 1):
        with pytest.raises(ParameterError, match=rf"h\* index must lie in 2\.\.{m}, got {j}"):
            update(data, j, state.params, priors, np.random.default_rng(0),
                   AdaptiveRw(0.4, "log_shift"))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("sampler_cls, case", CASES, ids=CASE_IDS)
def test_sampler_rejects_non_finite_observations(sampler_cls, case, bad):
    _, priors, _ = case()
    data = np.random.default_rng(5).normal(0.0, 1.0, 200)
    data[50] = bad
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParameterError, match=f"index 50 is {bad}$") as info:
            sampler_cls(data, priors)
    assert type(info.value) is ParameterError
    assert caught == []


def _constant_price_returns(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,price\n" + "".join(f"2020-01-{d:02d},100\n" for d in range(1, 31)))
    return log_returns(load_prices_csv(path)).values


@pytest.mark.parametrize("model, build", [("jump", build_jump_priors),
                                          ("stable", build_stable_priors)],
                         ids=["jump", "stable"])
def test_constant_price_series_fails_naming_the_data(tmp_path, model, build):
    returns = _constant_price_returns(tmp_path)
    with pytest.raises(DataError, match="^the return series has zero variance over its 29 values"):
        build(load_config(model=model, seed=0, states=2), returns)


def test_free_means_on_constant_observations_fail_naming_them(tmp_path):
    # an explicit prior rate gets past the priors; the state-mean walks take
    # their step scale from the observations' spread
    returns = _constant_price_returns(tmp_path)
    cfg = load_config(model="jump", seed=0, states=2, sigma_rate=0.1, fix_mean_zero=False)
    with pytest.raises(ParameterError, match="^observations have zero variance, so the mu_1"):
        JumpGibbsSampler(returns, build_jump_priors(cfg, returns))
