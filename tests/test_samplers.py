"""Whole-sampler tests for both models: golden fixed-seed draws, invariants
over many sweeps, determinism and stage tagging of sweep failures."""

import hashlib

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
    "mu_2": 0.018852506884810397, "sigma_sq_2": 2.979347448131292,
    "theta_2": 2.871411899653853, "n_jumps_2": 0.0, "h_star_2": 20.126916716046015,
}
JUMP_ACCEPTANCE = {
    "sigma1_sq": (1, 1), "h_star_2": (9, 25), "theta_1": (12, 25), "mu_1": (1, 1),
    "theta_2": (10, 25), "mu_2": (9, 23),
}
JUMP_DIGEST = "b8b032e20c382854829c4c7c11a3b7d2095c1a2c3bd6e5b0e6f3c8328dcdb86d"
JUMP_MEAN_FILTERED = np.array([
    0.18815798779689794, 0.8118420122031021, 0.3156533535432858, 0.6843466464567141,
    0.019145842839712237, 0.9808541571602877, 0.5286441113027557, 0.4713558886972444,
    0.4487526414806728, 0.5512473585193273, 0.34117354483187534, 0.6588264551681247,
    0.49257879575234326, 0.5074212042476566, 0.4332794889252044, 0.5667205110747955,
    0.46372285662049867, 0.5362771433795014, 0.24826139647888307, 0.7517386035211169,
    0.36363910359677526, 0.6363608964032248, 0.024009382014164624, 0.9759906179858354,
    0.045247822440578664, 0.9547521775594213, 0.17832383408867555, 0.8216761659113244,
    0.5162544860517502, 0.4837455139482499, 0.5384995209513145, 0.4615004790486854,
    0.06309653963508684, 0.9369034603649131, 0.027733787847351962, 0.9722662121526481,
    0.3956831296745641, 0.604316870325436, 0.3126562645836936, 0.6873437354163066,
    0.4166883995205207, 0.5833116004794793, 0.5641174487637933, 0.43588255123620673,
    0.5528072191049855, 0.44719278089501446, 0.23557235177478855, 0.7644276482252114,
    0.5608445237810415, 0.4391554762189583, 0.006880573037209857, 0.9931194269627901,
    0.09384608093592206, 0.9061539190640779, 0.3205287345027796, 0.6794712654972205,
    0.00032155679859500915, 0.9996784432014051, 0.5183108346229921, 0.48168916537700796,
    0.16067607583450702, 0.8393239241654931, 0.008817374217919045, 0.9911826257820808,
    0.19901678835082587, 0.8009832116491743, 0.0006990435846180672, 0.9993009564153819,
    0.006199297919173645, 0.9938007020808264, 0.5057052212603372, 0.49429477873966265,
    0.5324427257237301, 0.46755727427627, 0.47293759072918456, 0.5270624092708155,
    0.052290678906869545, 0.9477093210931304, 0.01862304798733378, 0.9813769520126663,
    0.010584500377409687, 0.9894154996225902, 0.49355711095778276, 0.5064428890422171,
    0.5560957074170843, 0.4439042925829158, 0.5506034973757734, 0.4493965026242267,
    0.10223429476117231, 0.8977657052388276, 0.4698379649667636, 0.5301620350332362,
    0.4591439780334425, 0.5408560219665576, 0.49784612776382137, 0.5021538722361787,
    0.5418059769631133, 0.4581940230368867, 0.5338360478006833, 0.4661639521993167,
    0.5432250584178273, 0.4567749415821727, 0.004876507047245904, 0.995123492952754,
    0.4042885128872522, 0.5957114871127478, 0.0018212683629724234, 0.9981787316370276,
    0.4080206174041275, 0.5919793825958725, 0.5104277774667607, 0.48957222253323923,
    0.038283918751411315, 0.9617160812485888, 0.021583865081463864, 0.9784161349185361,
    0.10923528814700155, 0.8907647118529984, 0.5415603273205899, 0.45843967267941016,
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


def test_bad_pi0_fails_at_iteration_0_as_parameter_error():
    data, priors, init = _jump_case()
    sampler = JumpGibbsSampler(data, priors, pi0=np.array([0.7, 0.7]))
    with pytest.raises(ParameterError) as info:
        run_chain(sampler.sweep, init, 5, 0, np.random.default_rng(0))
    exc = info.value
    assert type(exc) is ParameterError
    assert exc.stage == "state_path" and exc.iteration == 0
    assert str(exc) == (
        "sweep failed at iteration 0, stage state_path: pi0 must be a length-M probability vector"
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
