"""Whole-sampler tests for both models: golden fixed-seed draws, invariants
over many sweeps, determinism, the engine's copy-and-check rule for draws,
parameter and data validation, and stage tagging of sweep failures."""

import hashlib
import warnings

import numpy as np
import pytest

from regimevol import (
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
    initial_jump_state,
    initial_stable_state,
    run_chain,
    simulate_jump_model,
    simulate_stable_model,
)
from regimevol import jump_model, stable_model
from regimevol.jump_model import default_dirichlet_rows


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
    2, 2, 2, 2, 2, 1, 1, 1, 2, 2, 1, 2, 2, 2, 1, 1, 2, 2, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2, 2, 1,
    2, 2, 2, 2, 2, 2, 1, 1, 2, 2, 2, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 2, 2, 2, 1, 1, 2, 2, 2, 1,
]
JUMP_TRANSITION = [
    [0.5195204034291637, 0.4804795965708363],
    [0.491265580021439, 0.5087344199785611],
]
JUMP_PARAMS = {
    "mu_1": -0.10023142238200251, "sigma_sq_1": 0.1480280109549036,
    "theta_1": 0.2377740939661235, "n_jumps_1": 0.0,
    "mu_2": 0.018852506884809578, "sigma_sq_2": 2.9793474481313584,
    "theta_2": 2.871411899653853, "n_jumps_2": 0.0, "h_star_2": 20.126916716046466,
}
JUMP_ACCEPTANCE = {
    "sigma1_sq": (1, 1), "h_star_2": (9, 25), "theta_1": (12, 25), "mu_1": (1, 1),
    "theta_2": (10, 25), "mu_2": (9, 23),
}
JUMP_DIGEST = "63b07c68ac1d0c417863ab7ab556bf2c4fc59cfa98baa8708a6a9a6227f466c2"
JUMP_MEAN_FILTERED = np.array([
    0.18815798779692555, 0.8118420122030745, 0.3156533535433174, 0.6843466464566826,
    0.019145842839699032, 0.9808541571603009, 0.5286441113028195, 0.47135588869718054,
    0.44875264148069954, 0.5512473585193004, 0.3411735448318994, 0.6588264551681006,
    0.4925787957523842, 0.5074212042476156, 0.4332794889252519, 0.5667205110747481,
    0.4637228566205022, 0.5362771433794978, 0.24826139647890347, 0.7517386035210963,
    0.363639103596818, 0.6363608964031819, 0.024009382014169866, 0.9759906179858303,
    0.045247822440591626, 0.9547521775594084, 0.1783238340887197, 0.8216761659112802,
    0.5162544860517736, 0.4837455139482264, 0.5384995209513554, 0.46150047904864455,
    0.0630965396351124, 0.9369034603648878, 0.027733787847352104, 0.9722662121526479,
    0.3956831296745998, 0.6043168703254002, 0.31265626458372514, 0.6873437354162749,
    0.41668839952055264, 0.5833116004794474, 0.5641174487638266, 0.43588255123617353,
    0.552807219105001, 0.44719278089499886, 0.23557235177481856, 0.7644276482251815,
    0.5608445237810767, 0.43915547621892315, 0.006880573037211465, 0.9931194269627884,
    0.09384608093595773, 0.9061539190640424, 0.32052873450284175, 0.6794712654971582,
    0.0003215567985947934, 0.9996784432014051, 0.518310834623019, 0.48168916537698103,
    0.16067607583453108, 0.8393239241654691, 0.008817374217924345, 0.9911826257820757,
    0.19901678835084624, 0.8009832116491538, 0.0006990435846183376, 0.9993009564153816,
    0.0061992979191749535, 0.9938007020808253, 0.5057052212603784, 0.4942947787396215,
    0.5324427257237855, 0.4675572742762145, 0.47293759072921915, 0.5270624092707809,
    0.05229067890688092, 0.9477093210931191, 0.018623047987337434, 0.9813769520126627,
    0.010584500377411127, 0.989415499622589, 0.49355711095783467, 0.5064428890421654,
    0.5560957074171018, 0.44390429258289815, 0.5506034973758275, 0.4493965026241725,
    0.10223429476117625, 0.8977657052388238, 0.4698379649667907, 0.5301620350332092,
    0.4591439780334632, 0.5408560219665368, 0.4978461277638537, 0.5021538722361464,
    0.5418059769631307, 0.4581940230368693, 0.5338360478007063, 0.4661639521992938,
    0.5432250584178907, 0.45677494158210924, 0.004876507047246263, 0.9951234929527537,
    0.4042885128872888, 0.5957114871127112, 0.001821268362972345, 0.9981787316370275,
    0.4080206174041925, 0.5919793825958075, 0.5104277774667885, 0.48957222253321137,
    0.03828391875140948, 0.9617160812485906, 0.02158386508146832, 0.9784161349185315,
    0.1092352881470022, 0.8907647118529979, 0.5415603273206313, 0.45843967267936864,
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


# ---------------------------------------------------------------------------
# stable sampler over many sweeps


def test_stable_sweep_preserves_invariants():
    data, priors, state = _stable_case()
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
