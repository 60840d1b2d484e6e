"""Exact stdout of one command per rendered report type.

The CLI renders a report dataclass as its fields in declaration order, so
reordering a field changes the JSON text; these strings pin it.  Every
case has n <= 4 (the minblock family's s*t = 4, the rest n <= 3), so no
float in them depends on the host's SIMD log2, which differs from
math.log2 only for |c| > 2^13.
"""
import pytest

from hypercube_spectra import cli

GOLDEN = [
    (
        ["analyze", "--fn", "69", "--n", "3"],
        (
            '{"version":"0.1.0","command":["analyze","--fn","69","--n","3"],"input":{"n":3,'
            '"table_sha256":"c75cb66ae28d8ebc6eded002c28a8ba0d06d3a78c6b5cbf9b2ade051f0775ac4"},'
            '"status":"ok","payload":{"n":3,"entropy_bits":0.0000000000000000e+00,'
            '"min_entropy_bits":0.0000000000000000e+00,"influences":["1","1","1"],'
            '"influence_total":"3","term_sum_bits":0.0000000000000000e+00,'
            '"bound_bits":1.8984255368000671e+01,"bound_drop_one_bits":1.6984255368000671e+01,'
            '"jensen_cap_bits":0.0000000000000000e+00,'
            '"concentration":[{"delta":5.0000000000000000e-01,"count":1},'
            '{"delta":2.5000000000000000e-01,"count":1},{"delta":1.0000000000000001e-01,'
            '"count":1},{"delta":1.0000000000000000e-02,"count":1}]}}\n'
        ),
    ),
    (
        ["chain", "--family", "majority:n=3", "--eps", "0.25"],
        (
            '{"version":"0.1.0","command":["chain","--family","majority:n=3","--eps","0.25"],'
            '"input":{"n":3,'
            '"table_sha256":"7572920c2479d86b55ed3d99264979c35f97652f33ba9e73f2e40b474984a9c9"},'
            '"status":"ok","payload":{"eps":2.5000000000000000e-01,"order":[1,2,3],'
            '"steps":[{"coord":1,"value":1.0000000000000000e+00,"delta":0.0000000000000000e+00,'
            '"floor":-7.7839641525371439e-01},{"coord":2,"value":7.0710678118654757e-01,'
            '"delta":-2.9289321881345243e-01,"floor":-7.7839641525371439e-01},{"coord":3,'
            '"value":7.0710678118654757e-01,"delta":0.0000000000000000e+00,'
            '"floor":-7.7839641525371439e-01}],"final":7.0710678118654757e-01,'
            '"telescoped_floor":-1.3351892457611432e+00}}\n'
        ),
    ),
    (
        ["q31", "--family", "and:n=3"],
        (
            '{"version":"0.1.0","command":["q31","--family","and:n=3"],"input":{"n":3,'
            '"table_sha256":"4ca669ac3713d1f4aea07dae8dcc0d1c9867d27ea82a3ba4e6158a42206f959b"},'
            '"status":"ok","payload":{"n":3,"per_coord":[{"coord":1,"numerator":"3/8",'
            '"influence":"1/4","ratio":"3/2"},{"coord":2,"numerator":"3/8","influence":"1/4",'
            '"ratio":"3/2"},{"coord":3,"numerator":"3/8","influence":"1/4","ratio":"3/2"}],'
            '"best":"3/2","worst":"3/2"}}\n'
        ),
    ),
    (
        ["moments", "--family", "majority:n=3", "--eps", "0.1,0.2"],
        (
            '{"version":"0.1.0","command":["moments","--family","majority:n=3","--eps","0.1,'
            '0.2"],"input":{"n":3,'
            '"table_sha256":"7572920c2479d86b55ed3d99264979c35f97652f33ba9e73f2e40b474984a9c9"},'
            '"status":"ok","payload":{"coords":[1,2,3],"eps":[1.0000000000000001e-01,'
            '2.0000000000000001e-01],"values":[8.7055056329612401e-01,7.5785828325519911e-01]}}\n'
        ),
    ),
    (
        ["verify", "lemma24", "--grid", "5", "--random", "3", "--seed", "1"],
        (
            '{"version":"0.1.0","command":["verify","lemma24","--grid","5","--random","3",'
            '"--seed","1"],"input":null,"status":"ok","payload":{"grid":{"kind":"lemma24",'
            '"evaluated":375,"violations":0,"min_gap":-1.1102230246251565e-16,'
            '"argmin":{"a":0.0000000000000000e+00,"b":5.0000000000000000e-01,'
            '"eps":1.0000000000000000e-02}},"tolerance":9.9999999999999998e-13,'
            '"random":{"kind":"lemma24","evaluated":3,"violations":0,'
            '"min_gap":1.7059677318263078e-02,"argmin":{"a":5.1182162470025672e-01,'
            '"b":9.7493177053271607e-01,"eps":4.1385129691022088e-01}}}}\n'
        ),
    ),
    (
        ["spectrum", "--fn", "69", "--n", "3"],
        (
            '{"version":"0.1.0","command":["spectrum","--fn","69","--n","3"],"input":{"n":3,'
            '"table_sha256":"c75cb66ae28d8ebc6eded002c28a8ba0d06d3a78c6b5cbf9b2ade051f0775ac4"},'
            '"status":"ok","payload":{"n":3,"coeffs":[0,0,0,0,0,0,0,8],"parseval_ok":true}}\n'
        ),
    ),
    (
        ["spectrum", "--family", "majority:n=3", "--format", "csv"],
        "mask,coeff\n0,0\n1,4\n2,4\n3,0\n4,4\n5,0\n6,0\n7,-4\n",
    ),
    (
        ["verify", "theorem", "--max-n", "2"],
        (
            '{"version":"0.1.0","command":["verify","theorem","--max-n","2"],"input":null,'
            '"status":"ok","payload":{"mode":"exhaustive","max_n":2,"checked":16,"violations":0,'
            '"max_entropy_over_bound":2.7292259390023915e-01,"witness_of_max":{"n":2,"fn":"1"},'
            '"tolerance":1.0000000000000001e-09}}\n'
        ),
    ),
    (
        ["verify", "lemma22", "--max-n", "3", "--trials", "20", "--seed", "7"],
        (
            '{"version":"0.1.0","command":["verify","lemma22","--max-n","3","--trials","20",'
            '"--seed","7"],"input":null,"status":"ok","payload":{"trials":20,"max_n":3,"seed":7,'
            '"failures":0,"first_failure":null}}\n'
        ),
    ),
    (
        ["verify", "lemma31", "--max-n", "3", "--trials", "10", "--seed", "3"],
        (
            '{"version":"0.1.0","command":["verify","lemma31","--max-n","3","--trials","10",'
            '"--seed","3"],"input":null,"status":"ok","payload":{"trials":10,"max_n":3,"seed":3,'
            '"eps":[1.0000000000000000e-02,5.0000000000000003e-02,1.0000000000000001e-01,'
            '2.0000000000000001e-01,2.9999999999999999e-01,4.0000000000000002e-01,'
            '4.8999999999999999e-01],"checks":210,"violations":0,'
            '"min_margin":0.0000000000000000e+00,"witness_of_min":{"n":1,"fn":"3",'
            '"eps":1.0000000000000000e-02,"order":[1]},"tolerance":1.0000000000000001e-09}}\n'
        ),
    ),
    (
        ["verify", "eq27", "--grid", "5"],
        (
            '{"version":"0.1.0","command":["verify","eq27","--grid","5"],"input":null,'
            '"status":"ok","payload":{"grid":{"kind":"eq27","evaluated":375,"violations":0,'
            '"min_gap":-2.2204460492503131e-16,"argmin":{"a":0.0000000000000000e+00,'
            '"b":7.5000000000000000e-01,"eps":5.0000000000000003e-02}},'
            '"tolerance":9.9999999999999998e-13}}\n'
        ),
    ),
    (
        ["family", "--family", "minblock:s=2,t=2"],
        (
            '{"version":"0.1.0","command":["family","--family","minblock:s=2,t=2"],"input":{"n":4,'
            '"table_sha256":"1de510893081525a66b5cfab683dd5129b0361a2e67cf508937047cd58805bdb"},'
            '"status":"ok","payload":{"family":"minblock:s=2,t=2","n":4,'
            '"entropy_bits":4.0000000000000000e+00,"influence_total":"2",'
            '"term_sum_bits":2.0000000000000000e+00,"influences":["1/2","1/2","1/2","1/2"],'
            '"limits":{"expected_influence":"1/2","influences_ok":true,'
            '"jensen_cap_bits":2.0000000000000000e+00,'
            '"term_sum_abs_dev":0.0000000000000000e+00}}}\n'
        ),
    ),
    (
        ["search", "--n", "2", "--mode", "exhaustive", "--workers", "1"],
        (
            '{"metric":"ent_over_I","value":2.0000000000000000e+00,"n":2,"witness":"1",'
            '"context":{"n":2,"entropy_bits":2.0000000000000000e+00,'
            '"min_entropy_bits":2.0000000000000000e+00,"influences":["1/2","1/2"],'
            '"influence_total":"1","term_sum_bits":1.0000000000000000e+00,'
            '"bound_bits":7.3280851226668906e+00,"bound_drop_one_bits":5.8280851226668906e+00,'
            '"jensen_cap_bits":1.0000000000000000e+00,'
            '"concentration":[{"delta":5.0000000000000000e-01,"count":2},'
            '{"delta":2.5000000000000000e-01,"count":3},{"delta":1.0000000000000001e-01,'
            '"count":4},{"delta":1.0000000000000000e-02,"count":4}]}}\n'
            '{"metric":"ent_over_bound","value":2.7292259390023915e-01,"n":2,"witness":"1",'
            '"context":{"n":2,"entropy_bits":2.0000000000000000e+00,'
            '"min_entropy_bits":2.0000000000000000e+00,"influences":["1/2","1/2"],'
            '"influence_total":"1","term_sum_bits":1.0000000000000000e+00,'
            '"bound_bits":7.3280851226668906e+00,"bound_drop_one_bits":5.8280851226668906e+00,'
            '"jensen_cap_bits":1.0000000000000000e+00,'
            '"concentration":[{"delta":5.0000000000000000e-01,"count":2},'
            '{"delta":2.5000000000000000e-01,"count":3},{"delta":1.0000000000000001e-01,'
            '"count":4},{"delta":1.0000000000000000e-02,"count":4}]}}\n'
            '{"metric":"jensen_slack","value":0.0000000000000000e+00,"n":2,"witness":"1",'
            '"context":{"n":2,"entropy_bits":2.0000000000000000e+00,'
            '"min_entropy_bits":2.0000000000000000e+00,"influences":["1/2","1/2"],'
            '"influence_total":"1","term_sum_bits":1.0000000000000000e+00,'
            '"bound_bits":7.3280851226668906e+00,"bound_drop_one_bits":5.8280851226668906e+00,'
            '"jensen_cap_bits":1.0000000000000000e+00,'
            '"concentration":[{"delta":5.0000000000000000e-01,"count":2},'
            '{"delta":2.5000000000000000e-01,"count":3},{"delta":1.0000000000000001e-01,'
            '"count":4},{"delta":1.0000000000000000e-02,"count":4}]}}\n'
            '{"metric":"minent_over_I","value":2.0000000000000000e+00,"n":2,"witness":"1",'
            '"context":{"n":2,"entropy_bits":2.0000000000000000e+00,'
            '"min_entropy_bits":2.0000000000000000e+00,"influences":["1/2","1/2"],'
            '"influence_total":"1","term_sum_bits":1.0000000000000000e+00,'
            '"bound_bits":7.3280851226668906e+00,"bound_drop_one_bits":5.8280851226668906e+00,'
            '"jensen_cap_bits":1.0000000000000000e+00,'
            '"concentration":[{"delta":5.0000000000000000e-01,"count":2},'
            '{"delta":2.5000000000000000e-01,"count":3},{"delta":1.0000000000000001e-01,'
            '"count":4},{"delta":1.0000000000000000e-02,"count":4}]}}\n'
            '{"metric":"q31_worst","value":1.0000000000000000e+00,"n":2,"witness":"1",'
            '"context":{"n":2,"entropy_bits":2.0000000000000000e+00,'
            '"min_entropy_bits":2.0000000000000000e+00,"influences":["1/2","1/2"],'
            '"influence_total":"1","term_sum_bits":1.0000000000000000e+00,'
            '"bound_bits":7.3280851226668906e+00,"bound_drop_one_bits":5.8280851226668906e+00,'
            '"jensen_cap_bits":1.0000000000000000e+00,'
            '"concentration":[{"delta":5.0000000000000000e-01,"count":2},'
            '{"delta":2.5000000000000000e-01,"count":3},{"delta":1.0000000000000001e-01,'
            '"count":4},{"delta":1.0000000000000000e-02,"count":4}]}}\n'
        ),
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    GOLDEN,
    ids=[
        "analyze", "chain", "q31", "moments", "lemma24", "spectrum-json", "spectrum-csv",
        "theorem", "lemma22", "lemma31", "eq27", "family", "search",
    ],
)
def test_stdout_is_byte_identical(capsys, argv, expected):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
