"""The oracle's DOP853 step, in float arithmetic.

DOP853 is the explicit Runge-Kutta pair of Dormand and Prince of order 8
(Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.10), twelve stages per
step.  Its coefficients are those of Hairer's dop853.f, as named module
constants.  `step` takes one step of the oracle's eigenmode system

    a' = g e^{2i Theta} b,   b' = -g e^{-2i Theta} a,   Theta' = e,

from the coupling g and the Theta-slope e at the step's twelve stage
abscissae, which do not depend on (a, b) and so come in as two lists,
each already times the step size h: the step takes no h of its own.  The
state is the five floats (Re a, Im a, Re b, Im b, Theta): CPython 3.11
runs a float operation at about a third of the cost of a complex one, and
almost every tableau term is a complex times a real.  The step is straight-line
code that reads the constants by name, and forms the amplitudes' e3 as
dop853.f does: the 8th-order sum less the 3rd-order weights' terms.

The step returns its scaled error, dop853.f's blend of the embedded 5th-
and 3rd-order solutions, |e5|^2 / sqrt(|e5|^2 + |e3|^2 / 100), an rms over
a, b and Theta taken from squared moduli against squared weights.  a and b
are weighed by atol + rtol max(|y|, |y_new|), and Theta by 1/sqrt(wp),
which `oracle` sets to atol + rtol, the scale of a and b where |a| ~ 1: an
error in Theta is a phase error of the amplitudes, absolute however large
Theta has grown.  Theta's error sums are taken on the slopes' differences
from stage 1, exact as each sum's weights add to 0, so on the plateaus,
where its slope is constant and g ~ 0, they are exactly 0 and not the
rounding noise of weights that add to -1.6e-16 in floats: the step counts
do not move with the last bit of E.  Over the seed-1 inputs of the
`oracle-validation` benchmark a step costs ~15 us (CPython 3.11.7, one
core of an Intel Xeon, shared host), and every step costs about the same,
so the oracle's window sets the cost: those inputs take 9,592 steps in all.

The kernel is a module of its own because its straight-line code is long
and each module is compiled on its own: kept apart from `oracle`, its
source does not add to the memory that compiling the rest of the oracle
takes (inside `oracle.py` it raised the peak RSS of the benchmark, which
compiles the package nine times per run, by ~1 MB; apart, by ~0.1 MB).
"""

import math

# DOP853 tableau, from Hairer's dop853.f (Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, 2nd ed., Sec. II.10), with its names:
# stage i is taken at u + Ci h (C1 = 0, C12 = 1) from the stages j < i with
# weights Aij; stage 1 is the FSAL evaluation at the end of the step before
C2 = 0.526001519587677318785587544488e-01
C3 = 0.789002279381515978178381316732e-01
C4 = 0.118350341907227396726757197510
C5 = 0.281649658092772603273242802490
C6 = 0.333333333333333333333333333333
C7 = 0.25
C8 = 0.307692307692307692307692307692
C9 = 0.651282051282051282051282051282
C10 = 0.6
C11 = 0.857142857142857142857142857142
# the abscissae of stages 2..12 as fractions of the step (C12 = 1); stage
# 1's is the step's start
NODES = (C2, C3, C4, C5, C6, C7, C8, C9, C10, C11, 1.0)

A21 = 5.26001519587677318785587544488e-2

A31 = 1.97250569845378994544595329183e-2
A32 = 5.91751709536136983633785987549e-2

A41 = 2.95875854768068491816892993775e-2
A43 = 8.87627564304205475450678981324e-2

A51 = 2.41365134159266685502369798665e-1
A53 = -8.84549479328286085344864962717e-1
A54 = 9.24834003261792003115737966543e-1

A61 = 3.7037037037037037037037037037e-2
A64 = 1.70828608729473871279604482173e-1
A65 = 1.25467687566822425016691814123e-1

A71 = 3.7109375e-2
A74 = 1.70252211019544039314978060272e-1
A75 = 6.02165389804559606850219397283e-2
A76 = -1.7578125e-2

A81 = 3.70920001185047927108779319836e-2
A84 = 1.70383925712239993810214054705e-1
A85 = 1.07262030446373284651809199168e-1
A86 = -1.53194377486244017527936158236e-2
A87 = 8.27378916381402288758473766002e-3

A91 = 6.24110958716075717114429577812e-1
A94 = -3.36089262944694129406857109825
A95 = -8.68219346841726006818189891453e-1
A96 = 2.75920996994467083049415600797e1
A97 = 2.01540675504778934086186788979e1
A98 = -4.34898841810699588477366255144e1

A101 = 4.77662536438264365890433908527e-1
A104 = -2.48811461997166764192642586468
A105 = -5.90290826836842996371446475743e-1
A106 = 2.12300514481811942347288949897e1
A107 = 1.52792336328824235832596922938e1
A108 = -3.32882109689848629194453265587e1
A109 = -2.03312017085086261358222928593e-2

A111 = -9.3714243008598732571704021658e-1
A114 = 5.18637242884406370830023853209
A115 = 1.09143734899672957818500254654
A116 = -8.14978701074692612513997267357
A117 = -1.85200656599969598641566180701e1
A118 = 2.27394870993505042818970056734e1
A119 = 2.49360555267965238987089396762
A1110 = -3.0467644718982195003823669022

A121 = 2.27331014751653820792359768449
A124 = -1.05344954667372501984066689879e1
A125 = -2.00087205822486249909675718444
A126 = -1.79589318631187989172765950534e1
A127 = 2.79488845294199600508499808837e1
A128 = -2.85899827713502369474065508674
A129 = -8.87285693353062954433549289258
A1210 = 1.23605671757943030647266201528e1
A1211 = 6.43392746015763530355970484046e-1

# 8th-order weights of the step (B2..B5 = 0)
B1 = 5.42937341165687622380535766363e-2
B6 = 4.45031289275240888144113950566
B7 = 1.89151789931450038304281599044
B8 = -5.8012039600105847814672114227
B9 = 3.1116436695781989440891606237e-1
B10 = -1.52160949662516078556178806805e-1
B11 = 2.01365400804030348374776537501e-1
B12 = 4.47106157277725905176885569043e-2
# 5th-order error weights (Hairer's ER)
E5_1 = 0.1312004499419488073250102996e-1
E5_6 = -0.1225156446376204440720569753e+1
E5_7 = -0.4957589496572501915214079952
E5_8 = 0.1664377182454986536961530415e+1
E5_9 = -0.3503288487499736816886487290
E5_10 = 0.3341791187130174790297318841
E5_11 = 0.8192320648511571246570742613e-1
E5_12 = -0.2235530786388629525884427845e-1
# 3rd-order weights (Hairer's BHH), nonzero on stages 1, 9 and 12 only
B3_1 = 0.244094488188976377952755905512
B3_9 = 0.733846688281611857341361741547
B3_12 = 0.220588235294117647058823529412e-1


def step(ar, ai, br, bi, ph, hg, hw, rtol, atol, wp):
    """One DOP853 step of (a, b, Theta), a = ar + i ai and b = br + i bi, of
    size h from the h-scaled profile at its twelve stages, hg = h g and
    hw = h e.  Returns the 8th-order state at s + h, (ar, ai, br, bi, Theta),
    and the step's scaled error: the rms blend of the module docstring, a
    and b weighed by atol + rtol max(|y|, |y_new|) and Theta by 1/sqrt(wp).

    Each stage's coupling G = h g e^{2i Theta_i} is formed as hg cos 2Theta_i,
    hg sin 2Theta_i, what cmath.rect computes, and the slopes G b_i and
    -G* a_i in real arithmetic.  Every operation is the one the complex form
    makes on the same parts, or its exact negation, so the result is that of
    the complex step, bit for bit, up to the sign of a zero."""
    g1, g2, g3, g4, g5, g6, g7, g8, g9, g10, g11, g12 = hg
    kp1, kp2, kp3, kp4, kp5, kp6, kp7, kp8, kp9, kp10, kp11, kp12 = hw
    cos = math.cos
    sin = math.sin
    # stage i: Theta_i, G = (gr, gi), then the slope of a from b_i = (x, y)
    # and that of b from a_i = (x, y); the b-slopes are kept as G* a_i, their
    # negatives, and subtracted
    gr = g1 * cos(2.0 * ph)
    gi = g1 * sin(2.0 * ph)
    kar1 = gr * br - gi * bi
    kai1 = gr * bi + gi * br
    mbr1 = gr * ar + gi * ai
    mbi1 = gr * ai - gi * ar
    t = 2.0 * (ph + (kp1 * A21))
    gr = g2 * cos(t)
    gi = g2 * sin(t)
    x = br - (mbr1 * A21)
    y = bi - (mbi1 * A21)
    kar2 = gr * x - gi * y
    kai2 = gr * y + gi * x
    x = ar + (kar1 * A21)
    y = ai + (kai1 * A21)
    mbr2 = gr * x + gi * y
    mbi2 = gr * y - gi * x
    t = 2.0 * (ph + (kp1 * A31 + kp2 * A32))
    gr = g3 * cos(t)
    gi = g3 * sin(t)
    x = br - (mbr1 * A31 + mbr2 * A32)
    y = bi - (mbi1 * A31 + mbi2 * A32)
    kar3 = gr * x - gi * y
    kai3 = gr * y + gi * x
    x = ar + (kar1 * A31 + kar2 * A32)
    y = ai + (kai1 * A31 + kai2 * A32)
    mbr3 = gr * x + gi * y
    mbi3 = gr * y - gi * x
    t = 2.0 * (ph + (kp1 * A41 + kp3 * A43))
    gr = g4 * cos(t)
    gi = g4 * sin(t)
    x = br - (mbr1 * A41 + mbr3 * A43)
    y = bi - (mbi1 * A41 + mbi3 * A43)
    kar4 = gr * x - gi * y
    kai4 = gr * y + gi * x
    x = ar + (kar1 * A41 + kar3 * A43)
    y = ai + (kai1 * A41 + kai3 * A43)
    mbr4 = gr * x + gi * y
    mbi4 = gr * y - gi * x
    t = 2.0 * (ph + (kp1 * A51 + kp3 * A53 + kp4 * A54))
    gr = g5 * cos(t)
    gi = g5 * sin(t)
    x = br - (mbr1 * A51 + mbr3 * A53 + mbr4 * A54)
    y = bi - (mbi1 * A51 + mbi3 * A53 + mbi4 * A54)
    kar5 = gr * x - gi * y
    kai5 = gr * y + gi * x
    x = ar + (kar1 * A51 + kar3 * A53 + kar4 * A54)
    y = ai + (kai1 * A51 + kai3 * A53 + kai4 * A54)
    mbr5 = gr * x + gi * y
    mbi5 = gr * y - gi * x
    t = 2.0 * (ph + (kp1 * A61 + kp4 * A64 + kp5 * A65))
    gr = g6 * cos(t)
    gi = g6 * sin(t)
    x = br - (mbr1 * A61 + mbr4 * A64 + mbr5 * A65)
    y = bi - (mbi1 * A61 + mbi4 * A64 + mbi5 * A65)
    kar6 = gr * x - gi * y
    kai6 = gr * y + gi * x
    x = ar + (kar1 * A61 + kar4 * A64 + kar5 * A65)
    y = ai + (kai1 * A61 + kai4 * A64 + kai5 * A65)
    mbr6 = gr * x + gi * y
    mbi6 = gr * y - gi * x
    t = 2.0 * (ph + (kp1 * A71 + kp4 * A74 + kp5 * A75 + kp6 * A76))
    gr = g7 * cos(t)
    gi = g7 * sin(t)
    x = br - (mbr1 * A71 + mbr4 * A74 + mbr5 * A75 + mbr6 * A76)
    y = bi - (mbi1 * A71 + mbi4 * A74 + mbi5 * A75 + mbi6 * A76)
    kar7 = gr * x - gi * y
    kai7 = gr * y + gi * x
    x = ar + (kar1 * A71 + kar4 * A74 + kar5 * A75 + kar6 * A76)
    y = ai + (kai1 * A71 + kai4 * A74 + kai5 * A75 + kai6 * A76)
    mbr7 = gr * x + gi * y
    mbi7 = gr * y - gi * x
    t = 2.0 * (ph + (kp1 * A81 + kp4 * A84 + kp5 * A85 + kp6 * A86 + kp7 * A87))
    gr = g8 * cos(t)
    gi = g8 * sin(t)
    x = br - (mbr1 * A81 + mbr4 * A84 + mbr5 * A85 + mbr6 * A86 + mbr7 * A87)
    y = bi - (mbi1 * A81 + mbi4 * A84 + mbi5 * A85 + mbi6 * A86 + mbi7 * A87)
    kar8 = gr * x - gi * y
    kai8 = gr * y + gi * x
    x = ar + (kar1 * A81 + kar4 * A84 + kar5 * A85 + kar6 * A86 + kar7 * A87)
    y = ai + (kai1 * A81 + kai4 * A84 + kai5 * A85 + kai6 * A86 + kai7 * A87)
    mbr8 = gr * x + gi * y
    mbi8 = gr * y - gi * x
    t = 2.0 * (ph + (kp1 * A91 + kp4 * A94 + kp5 * A95 + kp6 * A96 + kp7 * A97 + kp8 * A98))
    gr = g9 * cos(t)
    gi = g9 * sin(t)
    x = br - (mbr1 * A91 + mbr4 * A94 + mbr5 * A95 + mbr6 * A96 + mbr7 * A97 + mbr8 * A98)
    y = bi - (mbi1 * A91 + mbi4 * A94 + mbi5 * A95 + mbi6 * A96 + mbi7 * A97 + mbi8 * A98)
    kar9 = gr * x - gi * y
    kai9 = gr * y + gi * x
    x = ar + (kar1 * A91 + kar4 * A94 + kar5 * A95 + kar6 * A96 + kar7 * A97 + kar8 * A98)
    y = ai + (kai1 * A91 + kai4 * A94 + kai5 * A95 + kai6 * A96 + kai7 * A97 + kai8 * A98)
    mbr9 = gr * x + gi * y
    mbi9 = gr * y - gi * x
    t = 2.0 * (ph + (kp1 * A101 + kp4 * A104 + kp5 * A105 + kp6 * A106 + kp7 * A107 + kp8 * A108
                     + kp9 * A109))
    gr = g10 * cos(t)
    gi = g10 * sin(t)
    x = br - (mbr1 * A101 + mbr4 * A104 + mbr5 * A105 + mbr6 * A106 + mbr7 * A107 + mbr8 * A108
              + mbr9 * A109)
    y = bi - (mbi1 * A101 + mbi4 * A104 + mbi5 * A105 + mbi6 * A106 + mbi7 * A107 + mbi8 * A108
              + mbi9 * A109)
    kar10 = gr * x - gi * y
    kai10 = gr * y + gi * x
    x = ar + (kar1 * A101 + kar4 * A104 + kar5 * A105 + kar6 * A106 + kar7 * A107 + kar8 * A108
              + kar9 * A109)
    y = ai + (kai1 * A101 + kai4 * A104 + kai5 * A105 + kai6 * A106 + kai7 * A107 + kai8 * A108
              + kai9 * A109)
    mbr10 = gr * x + gi * y
    mbi10 = gr * y - gi * x
    t = 2.0 * (ph + (kp1 * A111 + kp4 * A114 + kp5 * A115 + kp6 * A116 + kp7 * A117 + kp8 * A118
                     + kp9 * A119 + kp10 * A1110))
    gr = g11 * cos(t)
    gi = g11 * sin(t)
    x = br - (mbr1 * A111 + mbr4 * A114 + mbr5 * A115 + mbr6 * A116 + mbr7 * A117 + mbr8 * A118
              + mbr9 * A119 + mbr10 * A1110)
    y = bi - (mbi1 * A111 + mbi4 * A114 + mbi5 * A115 + mbi6 * A116 + mbi7 * A117 + mbi8 * A118
              + mbi9 * A119 + mbi10 * A1110)
    kar11 = gr * x - gi * y
    kai11 = gr * y + gi * x
    x = ar + (kar1 * A111 + kar4 * A114 + kar5 * A115 + kar6 * A116 + kar7 * A117 + kar8 * A118
              + kar9 * A119 + kar10 * A1110)
    y = ai + (kai1 * A111 + kai4 * A114 + kai5 * A115 + kai6 * A116 + kai7 * A117 + kai8 * A118
              + kai9 * A119 + kai10 * A1110)
    mbr11 = gr * x + gi * y
    mbi11 = gr * y - gi * x
    t = 2.0 * (ph + (kp1 * A121 + kp4 * A124 + kp5 * A125 + kp6 * A126 + kp7 * A127 + kp8 * A128
                     + kp9 * A129 + kp10 * A1210 + kp11 * A1211))
    gr = g12 * cos(t)
    gi = g12 * sin(t)
    x = br - (mbr1 * A121 + mbr4 * A124 + mbr5 * A125 + mbr6 * A126 + mbr7 * A127 + mbr8 * A128
              + mbr9 * A129 + mbr10 * A1210 + mbr11 * A1211)
    y = bi - (mbi1 * A121 + mbi4 * A124 + mbi5 * A125 + mbi6 * A126 + mbi7 * A127 + mbi8 * A128
              + mbi9 * A129 + mbi10 * A1210 + mbi11 * A1211)
    kar12 = gr * x - gi * y
    kai12 = gr * y + gi * x
    x = ar + (kar1 * A121 + kar4 * A124 + kar5 * A125 + kar6 * A126 + kar7 * A127 + kar8 * A128
              + kar9 * A129 + kar10 * A1210 + kar11 * A1211)
    y = ai + (kai1 * A121 + kai4 * A124 + kai5 * A125 + kai6 * A126 + kai7 * A127 + kai8 * A128
              + kai9 * A129 + kai10 * A1210 + kai11 * A1211)
    mbr12 = gr * x + gi * y
    mbi12 = gr * y - gi * x
    sar = (kar1 * B1 + kar6 * B6 + kar7 * B7 + kar8 * B8 + kar9 * B9 + kar10 * B10 + kar11 * B11
           + kar12 * B12)
    sai = (kai1 * B1 + kai6 * B6 + kai7 * B7 + kai8 * B8 + kai9 * B9 + kai10 * B10 + kai11 * B11
           + kai12 * B12)
    sbr = (mbr1 * B1 + mbr6 * B6 + mbr7 * B7 + mbr8 * B8 + mbr9 * B9 + mbr10 * B10 + mbr11 * B11
           + mbr12 * B12)
    sbi = (mbi1 * B1 + mbi6 * B6 + mbi7 * B7 + mbi8 * B8 + mbi9 * B9 + mbi10 * B10 + mbi11 * B11
           + mbi12 * B12)
    sp = (kp1 * B1 + kp6 * B6 + kp7 * B7 + kp8 * B8 + kp9 * B9 + kp10 * B10 + kp11 * B11
          + kp12 * B12)
    e5ar = (kar1 * E5_1 + kar6 * E5_6 + kar7 * E5_7 + kar8 * E5_8 + kar9 * E5_9 + kar10 * E5_10
            + kar11 * E5_11 + kar12 * E5_12)
    e5ai = (kai1 * E5_1 + kai6 * E5_6 + kai7 * E5_7 + kai8 * E5_8 + kai9 * E5_9 + kai10 * E5_10
            + kai11 * E5_11 + kai12 * E5_12)
    e5br = (mbr1 * E5_1 + mbr6 * E5_6 + mbr7 * E5_7 + mbr8 * E5_8 + mbr9 * E5_9 + mbr10 * E5_10
            + mbr11 * E5_11 + mbr12 * E5_12)
    e5bi = (mbi1 * E5_1 + mbi6 * E5_6 + mbi7 * E5_7 + mbi8 * E5_8 + mbi9 * E5_9 + mbi10 * E5_10
            + mbi11 * E5_11 + mbi12 * E5_12)
    # the 3rd-order error is the 8th-order sum less the 3rd-order one, whose
    # weights are nonzero on stages 1, 9 and 12 only, as dop853.f forms it
    e3ar = sar - kar1 * B3_1 - kar9 * B3_9 - kar12 * B3_12
    e3ai = sai - kai1 * B3_1 - kai9 * B3_9 - kai12 * B3_12
    e3br = sbr - mbr1 * B3_1 - mbr9 * B3_9 - mbr12 * B3_12
    e3bi = sbi - mbi1 * B3_1 - mbi9 * B3_9 - mbi12 * B3_12
    # Theta's error sums, on the slopes' differences from stage 1: each set
    # of weights adds to 0, so these are the plain sums in exact arithmetic,
    # and they are exactly 0 where the slope is constant, as on the plateaus
    # (the plain sums' float weights add to -1.6e-16, leaving noise there)
    e5p = ((kp6 - kp1) * E5_6 + (kp7 - kp1) * E5_7 + (kp8 - kp1) * E5_8 + (kp9 - kp1) * E5_9
           + (kp10 - kp1) * E5_10 + (kp11 - kp1) * E5_11 + (kp12 - kp1) * E5_12)
    e3p = ((kp6 - kp1) * B6 + (kp7 - kp1) * B7 + (kp8 - kp1) * B8 + (kp9 - kp1) * (B9 - B3_9)
           + (kp10 - kp1) * B10 + (kp11 - kp1) * B11 + (kp12 - kp1) * (B12 - B3_12))
    # the weights 1/sc^2, sc = atol + rtol max(|y|, |y_new|), of a and b from
    # their squared moduli; the b-sums are kept negated, which squares away
    sqrt = math.sqrt
    n0 = ar * ar + ai * ai
    ar, ai = ar + sar, ai + sai
    n1 = ar * ar + ai * ai
    sc = atol + rtol * sqrt(n0 if n0 > n1 else n1)
    wa = 1.0 / (sc * sc)
    n0 = br * br + bi * bi
    br, bi = br - sbr, bi - sbi
    n1 = br * br + bi * bi
    sc = atol + rtol * sqrt(n0 if n0 > n1 else n1)
    wb = 1.0 / (sc * sc)
    err5 = (e5ar * e5ar + e5ai * e5ai) * wa + (e5br * e5br + e5bi * e5bi) * wb + e5p * e5p * wp
    denom = err5 + 0.01 * ((e3ar * e3ar + e3ai * e3ai) * wa
                           + (e3br * e3br + e3bi * e3bi) * wb + e3p * e3p * wp)
    # denom = 0: every error sum squares to below the double range, so the
    # scaled error is below 1e-148; a NaN state or profile gives a NaN error
    return ar, ai, br, bi, ph + sp, 0.0 if denom == 0.0 else err5 / sqrt(3.0 * denom)
