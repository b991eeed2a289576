"""Exact cycles for the runs that no other gate pins.

``python -m perf reference --check`` pins the raw and default-cured
cycles of every suite program, and the Figure 9 and Section 5 tests
check bands.  This table pins the remaining cost paths byte for byte,
for every suite program at its default scale on the closure engine:

* Purify and Valgrind (shadow accesses, allocations, frees, the JIT
  dilation and the I/O dilation);
* cured with ``use_rtti=False`` (WILD pointer moves and tag updates);
* cured with ``all_split=True`` (split-metadata operations, and the
  split metadata ``ftpd`` manufactures for library data);
* cured with ``temporal=True`` (``CHECK_ALIVE``).

Any change to how a run counts or prices its events moves a number
here.  The runs go through :func:`repro.bench.run_workload`, so the
harness memo shares them with the Figure 9 and Section 5 tests.
"""

import pytest

from repro.bench import run_workload
from repro.core import CureOptions
from repro.workloads import all_workloads, get

#: the cured variants, as extra cure options
VARIANTS = {"no_rtti": {"use_rtti": False},
            "all_split": {"all_split": True},
            "temporal": {"temporal": True}}
COLUMNS = ("purify", "valgrind") + tuple(VARIANTS)

#: name -> cycles per column
EXPECTED = {
    "apache_asis": (12_004_095, 11_085_872, 715_150, 715_632, 721_990),
    "apache_expires": (8_535_393, 9_629_878, 720_138, 720_738, 727_578),
    "apache_gzip": (12_249_552, 12_068_256, 1_240_308, 1_240_488,
                    1_379_697),
    "apache_headers": (11_110_988, 10_862_287, 750_259, 751_339,
                       763_219),
    "apache_info": (7_106_267, 8_923_195, 698_779, 698_899, 703_228),
    "apache_layout": (26_254_078, 17_481_957, 859_033, 859_397,
                      904_453),
    "apache_random": (8_172_457, 9_430_932, 708_192, 708_552, 714_312),
    "apache_urlcount": (7_731_347, 9_272_701, 719_272, 719_427,
                        727_611),
    "apache_usertrack": (9_182_642, 9_926_137, 723_487, 724_087,
                         731_917),
    "apache_webstone": (14_145_651, 12_402_888, 844_533, 845_708,
                        862_037),
    "bind_like": (320_471, 235_679, 19_533, 19_903, 20_984),
    "ftpd": (567_315, 614_895, 56_157, 56_237, 56_358),
    "olden_bisort": (1_511_473, 904_369, 128_363, 59_605, 79_219),
    "olden_em3d": (3_893_174, 2_444_561, 293_009, 200_309, 229_809),
    "olden_power": (400_019, 279_713, 25_708, 16_363, 19_540),
    "olden_treeadd": (381_742, 255_237, 31_617, 16_827, 21_417),
    "openssh_like": (105_728, 88_472, 8_484, 8_436, 8_610),
    "openssl_like": (1_599_270, 1_068_488, 120_606, 120_938, 138_797),
    "pcnet32": (5_707_117, 5_596_586, 587_915, 585_434, 607_373),
    "ptrdist_anagram": (5_741_164, 3_343_261, 255_149, 255_149,
                        260_374),
    "ptrdist_ks": (13_279_211, 7_751_127, 870_967, 496_458, 633_905),
    "sbull": (8_936_834, 8_539_819, 1_041_486, 962_550, 1_094_055),
    "sendmail_like": (423_510, 215_946, 10_742, 10_774, 12_428),
    "spec_compress": (15_237_767, 9_461_562, 837_654, 786_182,
                      886_388),
    "spec_go": (4_583_671, 2_877_917, 315_109, 315_109, 316_405),
    "spec_ijpeg": (432_530, 262_829, 22_113, 18_484, 19_817),
    "spec_li": (807_781, 437_375, 26_658, 23_344, 25_684),
}


def test_table_covers_the_suite():
    assert sorted(EXPECTED) == sorted(w.name for w in all_workloads())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_exact_cycles(name):
    w = get(name)
    row = run_workload(w, tools=("purify", "valgrind"))
    got = [row.purify.cycles, row.valgrind.cycles]
    for flags in VARIANTS.values():
        opts = CureOptions(trust_bad_casts=w.trust_bad_casts, **flags)
        got.append(run_workload(w, tools=("ccured",),
                                options=opts).ccured.cycles)
    assert dict(zip(COLUMNS, got)) == dict(zip(COLUMNS, EXPECTED[name]))
