"""Golden CLI corpus: exit code and SHA-256 of stdout for in-process calls.

Each digest was recorded from the implementation before the ring kernels
were consolidated (one Frobenius matrix, one power loop, one Euclid, one
dot product), the three GL_3 and GL_4 cases after them before matrices
moved to one precision over coefficient values, and the ``jet-prolong``
cases with coefficients of high valuation at the end before the jet product
kernel skipped vanishing products, so any change in the CLI's output bytes
shows up here.  The ``--backend kolchin`` ``jet-prolong`` case was
re-recorded when series prolongation began to cost every coefficient one
order (its output is now printed mod t^4, not t^6).
The three ``decompose`` error cases at the end, whose documents carry an
exact non-unit trailing minor or determinant, were recorded before
elimination began to pivot on entries of least valuation.
The five cases after them (a ``jet-prolong`` fed the document that
``--times 0`` prints, ``conjugated-torus`` coherence on the arithmetic
backend with and without ``--u``, and a ``coboundary`` map given as
``{"v": ...}``) were recorded before ``psi`` moved to Horner's rule and
the ring layer to one valuation, one power and one operator wiring.
The nine cases at the end (``cocycle-recover``, ``decompose
--precondition`` at n = 5 and 6, and ``reconstruct``, with words that
hold a bad permutation or a non-unit s-entry) were recorded before
``recover`` read v off the elementary matrices and ``reconstruct`` applied
its factors one by one; all but one kept their bytes.  The exception is
``cocycle-recover --map logderiv``, which still exits 2 with
InconsistentSystemError, but whose message now names the failing sample
point instead of an eliminated row of the old linear system.
The three checker cases after them (a failing ``borel`` and a passing
``sl_n`` coherence check of ``C3``, and a ``hom-check`` on the series
backend) were recorded before the three sampled checks moved onto one
counterexample search.  The last case, a ``reconstruct`` of a word with
n = 0, printed a 0x0 matrix with exit 0 until then; it was recorded after
an empty permutation began to raise the ShapeError that ``decompose``
raises for that matrix.
The two ``decompose --precondition`` cases at the end (the 8x8
anti-diagonal, and a sparse 6x6 matrix over W(F_9)/3^3 whose row order is
neither the identity nor the reversal) were recorded before
``precondition`` built its row order one column at a time instead of
searching the row permutations for it.
``selftest`` is left out because its report holds wall-clock seconds.
To re-record after an intended output change, print
``hashlib.sha256(out.encode()).hexdigest()`` for each case.
"""

import hashlib
import json

import pytest

from delta_forge.cli import main

# a classified cocycle on GL_3 over W(Z/5^4)
C3 = '{"omega":{"lambda":[[67],[97]]},"v":{"n":3,"rows":[[[23],[89],[4]],[[60],[85],[7]],[[1],[2],[3]]]}}'

# a classified cocycle on GL_2 over W(Z/5^3)
C2 = '{"omega":{"lambda":[[67],[97]]},"v":{"n":2,"rows":[[[23],[89]],[[60],[85]]]}}'
# a classified cocycle on GL_3 over W(F_25)/5^4, as `cocycle-make --p 5 --prec 4 --m 2 --n 3 --seed 7` prints it
C3M2 = '{"omega":{"lambda":[[536,184]]},"v":{"n":3,"rows":[[[486,129],[2,623],[464,477]],[[136,173],[313,344],[480,75]],[[53,448],[401,364],[171,555]]]}}'
# the word that `decompose` prints for an admissible 4x4 matrix over W(F_27)/3^3
W4 = '{"factors":[{"kind":"perm","sigma":[0,1,2,3]},{"a":[25,2,23],"b":[[24,2,17],[2,21,16],[24,24,24]],"kind":"s"},{"kind":"perm","sigma":[3,0,1,2]},{"a":[2,23,25],"b":[[6,7,15],[2,23,23],[0,0,0]],"kind":"s"},{"kind":"perm","sigma":[2,0,1,3]},{"a":[2,0,22],"b":[[1,0,2],[0,0,0],[0,0,0]],"kind":"s"},{"kind":"perm","sigma":[1,0,2,3]},{"a":[1,0,0],"b":[[0,0,0],[0,0,0],[0,0,0]],"kind":"s"},{"kind":"perm","sigma":[0,1,2,3]},{"a":[1,0,0],"b":[[2,2,1],[0,0,0],[0,0,0]],"kind":"s"},{"kind":"perm","sigma":[2,0,1,3]},{"a":[1,0,0],"b":[[24,7,13],[0,0,0],[0,0,0]],"kind":"s"},{"kind":"perm","sigma":[1,2,0,3]},{"a":[1,0,0],"b":[[0,0,0],[13,8,4],[0,0,0]],"kind":"s"},{"kind":"perm","sigma":[3,2,0,1]},{"a":[1,0,0],"b":[[9,11,9],[0,0,0],[0,0,0]],"kind":"s"},{"kind":"perm","sigma":[1,2,0,3]},{"a":[1,0,0],"b":[[0,0,0],[22,7,14],[0,0,0]],"kind":"s"},{"kind":"perm","sigma":[2,1,3,0]},{"a":[1,0,0],"b":[[0,0,0],[0,0,0],[18,11,25]],"kind":"s"},{"kind":"perm","sigma":[3,1,2,0]}],"n":4}'
# the document that `jet-prolong --p 3 --prec 4 --times 0 'x0*x1 + 2*x0^2'` prints
T0 = json.dumps({"order": 0, "terms": [{"coefficient": [1], "exponents": [[0, 0, 1], [1, 0, 1]]},
                                       {"coefficient": [2], "exponents": [[0, 0, 2]]}],
                 "text": "x0*x1 + 2*x0^2"}, indent=2, sort_keys=True) + "\n"
# the 8x8 anti-diagonal over the integers
ANTI8 = json.dumps({"n": 8, "rows": [[int(i + j == 7) for j in range(8)] for i in range(8)]}, separators=(",", ":"))

CASES = [
    (('ring-info', '--p', '5', '--prec', '3'),
     0, 'de2a40ec7214bc6eaf3391014e82c6506c1a75857b1fa8ca21c4509d1915e829'),
    (('ring-info', '--p', '5', '--prec', '3', '--m', '2'),
     0, '7900c5fe63ed5282048e26439dc18917cedee26e89b14974cdbc2a05093d83fb'),
    (('ring-info', '--p', '3', '--prec', '4', '--m', '3'),
     0, 'c86ff8bef325e65cdf770642562a55cd50bdbfe01ab5f53a4b5d1c679c6c6a31'),
    (('ring-info', '--p', '13', '--prec', '3', '--m', '3'),
     0, 'b3282b02ad0fdf37f5dff125ccfa9b6a8775a6f644bdea7003fee71440a750d8'),
    (('ring-info', '--p', '7', '--prec', '5', '--m', '4'),
     0, 'f84c9b35a0b584bc6e0c58196d381094ab44636c19c1721abeed52156afb3cf8'),
    (('ring-info', '--p', '3', '--prec', '4', '--m', '2', '--modulus', '[1,0,1]'),
     0, '18d2ec4a5da7caed40aa69aefdd3171e1c770966f9a2b0a14b8190d50b48c284'),
    (('ring-info', '--p', '3', '--prec', '4', '--m', '2', '--modulus', '[2,0,1]'),
     2, '805e3f7d44a06a184dabc65fb0a04c7648ab308734912dd2919bb14f54520268'),
    (('delta-eval', '--p', '5', '--prec', '3', '7'),
     0, '9d90390b792eb54e3cba8490b6a3abc19489ce6939f84f66652ab977707b4250'),
    (('delta-eval', '--p', '3', '--prec', '4', '--m', '2', '[5,7]'),
     0, '1caffab6d377ef205dda43f4b00e418ce695598001cf9caa46fcc66c58ca9dc8'),
    (('delta-eval', '--p', '3', '--prec', '4', '--m', '3', '[5,7,11]'),
     0, 'f535f144ab38c27d81d19ec295d1a16678ef0a3ac2f66e317c9ebb0be7c3b6f9'),
    (('delta-eval', '--backend', 'kolchin', '--trunc', '6', '["1","1/2","0","3"]'),
     0, '40b7bcd4e7c62d00918cb7559b510ca800965e4f82b93827ba18efc74efc0f93'),
    (('teich', '--p', '5', '--prec', '3', '2'),
     0, '292993109b90bdeed0c30dee6d73eb89ffac836d500c75492347fc7f2e58d005'),
    (('teich', '--p', '3', '--prec', '4', '--m', '2', '[1,2]'),
     0, '40f752fcdd064a6b02ce8e22d5324465e9c8daf51988ded0ca12b00645b42914'),
    (('teich', '--p', '3', '--prec', '4', '--m', '3', '[2,0,1]'),
     0, '5c8f702e2b73d6d959443cc7eca5e1fb6a533fcd43dbe0f504e8a85c55ea2abc'),
    (('psi', '--p', '5', '--prec', '3', '7'),
     0, 'd156276bce5da585ff858330cff5bdb02d2f07b62303329c33d383ae447e0139'),
    (('psi', '--p', '3', '--prec', '4', '--m', '2', '[4,3]'),
     0, '6407c2d996d0c9e204d9b336d3f65e9f5b53e57e923a7fbb7eb689b56fd4376f'),
    (('psi', '--p', '3', '--prec', '4', '--m', '3', '[4,3,1]'),
     0, 'db53e543f26798d36a3a391819f049a6f61707b1e3f42a05f083fdaf3c7109a7'),
    (('psi', '--p', '3', '--prec', '4', '--m', '2', '[3,6]'),
     2, '3990626775dd765ff7ca910a22d1112d74b24d91bf5ceea14dabd7303e48b4d4'),
    (('jet-prolong', '--p', '3', '--prec', '5', '--times', '2', 'x0*x1 + 2*x0^2'),
     0, '2de2c7f0a2f994c6c83c7b4eed8ed4da73b7c5b70882ff63a495578d26b6a417'),
    (('jet-prolong', '--p', '3', '--prec', '4', '--m', '2', 'x0^2*x1 - 4*x1'),
     0, '2977434c06415b3e4342e9dad16c99d9cc9ad687cb990ea9926b4c0f3b64f1b4'),
    (('jet-prolong', '--p', '3', '--prec', '4', '--m', '3', '[{"coefficient":[1,2,0],"exponents":[[0,0,2],[1,0,1]]}]'),
     0, '13007593112ea3a571d134aeda93d3399e5bda4beb547da5231c60e02d3fac23'),
    (('jet-prolong', '--backend', 'kolchin', '--trunc', '6', '--times', '2', "x0^2 + 3*x0*x1'"),
     0, 'b4bea81f2fc61978decfd646273ccb33e5e63b5fbfdbbbafb1a207f105c30399'),
    (('jet-prolong', '--p', '3', '--prec', '3', '--times', '3', 'x0^2'),
     3, '5c8b3313386a85a37599a454f13b4278e46baad8aa4beea7f9517d43a3907680'),
    (('jet-nabla', '--p', '5', '--prec', '3', '--order', '2', '2', '3'),
     0, 'cd3b03ad8c025da8f03e171190355e770cf296e51794db1685ee040ccb2555ee'),
    (('jet-nabla', '--p', '3', '--prec', '4', '--m', '2', '--order', '2', '[1,2]'),
     0, '5cc348bfd7ce42984e738a2fdee381b8d056021b30b1aa5568be14eea04e2b6f'),
    (('jet-nabla', '--backend', 'kolchin', '--trunc', '6', '--order', '2', '["1","2"]'),
     0, '31d384ff67d08d46fd43e393a0c674b9e538bb13b792ebbcdab88e2828c6afc4'),
    (('hom-check', '--p', '5', '--prec', '3', '--law', 'additive', '--params', '{"lambda":[1,2]}', '--samples', '10', '--seed', '3'),
     0, '065f8dac8708fa7b6324ea5c235405bf608db36d7ef836ce2b85ce1064a00325'),
    (('hom-check', '--p', '3', '--prec', '4', '--m', '2', '--law', 'multiplicative', '--params', '{"lambda":[1,[1,1]]}', '--samples', '10', '--seed', '3'),
     0, '29009d0409ee12b1420c328066f572e5b883520fa53ea7db491cfd0ff4e43175'),
    (('hom-check', '--p', '3', '--prec', '4', '--m', '3', '--law', 'twisted', '--s', '2', '--params', '{"mu":[1,1,0]}', '--samples', '10', '--seed', '3'),
     0, 'f64d80ddcea629cc53b90d8664724f0cf8e7231f3491e52d79041f58dc691979'),
    (('hom-check', '--backend', 'kolchin', '--trunc', '6', '--law', 'twisted', '--s', '-1', '--params', '{"mu":1}', '--samples', '10', '--seed', '3'),
     0, 'f64d80ddcea629cc53b90d8664724f0cf8e7231f3491e52d79041f58dc691979'),
    (('cocycle-make', '--p', '5', '--prec', '3', '--n', '2', '--order', '2', '--seed', '7'),
     0, '8d7ffb84354d6fc71a920b2ed44247fd8bf175154efa2941f117640cf42371a4'),
    (('cocycle-make', '--p', '3', '--prec', '4', '--m', '2', '--n', '2', '--seed', '7'),
     0, '8fb350e41f66d31cd6866f8f19d8b696727ae1a0cf3db25bec3dafee023cc285'),
    (('cocycle-make', '--p', '3', '--prec', '4', '--m', '3', '--n', '2', '--seed', '7'),
     0, '061f0244ef28b8329f12be04fd9aa557cf16b020a3a70db37842824d28b51021'),
    (('cocycle-check', '--p', '3', '--prec', '4', '--m', '2', '--n', '2', '--samples', '5', '--seed', '7', '--cocycle', '{"omega":{"lambda":[[67,23]]},"v":{"n":2,"rows":[[[60,16],[0,77]],[[58,59],[17,21]]]}}'),
     0, '17136e01610ee3b459d721ec60a77fafa00bc4961b8eefb6321de0650eb689d1'),
    (('cocycle-check', '--p', '5', '--prec', '3', '--n', '3', '--samples', '5', '--seed', '7', '--map', 'coboundary', '--cocycle', '{"n":3,"rows":[[1,2,0],[0,1,3],[4,0,1]]}'),
     0, '17136e01610ee3b459d721ec60a77fafa00bc4961b8eefb6321de0650eb689d1'),
    (('cocycle-check', '--backend', 'kolchin', '--trunc', '6', '--n', '2', '--samples', '5', '--map', 'logderiv'),
     0, '2375c6ae9d99700633a0b15e9331b8048532c1e1fa21c83c45c08f9776419ac2'),
    (('cocycle-recover', '--p', '5', '--prec', '3', '--n', '2', '--seed', '7', '--cocycle', '{"omega":{"lambda":[[67],[97]]},"v":{"n":2,"rows":[[[23],[89]],[[60],[85]]]}}'),
     0, 'db98a0a2c334184b933ca57e82da333fb98540ea7dee88d604dcc04be6e43437'),
    (('cocycle-recover', '--p', '3', '--prec', '4', '--m', '3', '--n', '2', '--seed', '7', '--cocycle', '{"omega":{"lambda":[[67,23,60]]},"v":{"n":2,"rows":[[[16,0,77],[58,59,17]],[[21,39,43],[60,80,9]]]}}'),
     0, 'a9a063e8807392ec5fd931112e391c2e3aef3acdba649756c73a38f62128e236'),
    (('coherence-check', '--p', '3', '--prec', '4', '--m', '2', '--n', '2', '--samples', '5', '--seed', '7', '--subgroup', 'torus', '--cocycle', '{"omega":{"lambda":[[67,23]]},"v":{"n":2,"rows":[[[60,16],[0,77]],[[58,59],[17,21]]]}}'),
     1, 'ad8f6e750212f3ff96303e32573dd72de422be58d1bd57825f2332cee655e5eb'),
    (('coherence-check', '--p', '5', '--prec', '3', '--n', '3', '--samples', '5', '--seed', '7', '--subgroup', 'sl_n', '--map', 'logderiv', '--backend', 'kolchin', '--trunc', '6'),
     0, 'ad136924132536028c212d48f43fdfab58ffdbdc59d82090627f95a054a8049a'),
    (('coherence-check', '--p', '5', '--prec', '3', '--n', '2', '--samples', '5', '--seed', '7', '--subgroup', 'borel', '--map', 'logderiv', '--backend', 'kolchin', '--trunc', '6'),
     0, 'c44936b5698d0f73d2265231184504aa1243c850e2bb9940658818be54426800'),
    (('coherence-check', '--p', '3', '--prec', '4', '--m', '2', '--n', '2', '--samples', '5', '--seed', '7', '--subgroup', 'conjugated-torus', '--map', 'logderiv', '--backend', 'kolchin', '--trunc', '5'),
     0, '076e0b8e942cb6ec796c752d6ae92070f863ed53eab30bedc3eb79b5055cde96'),
    (('coherence-check', '--p', '5', '--prec', '3', '--n', '2', '--samples', '5', '--seed', '7', '--subgroup', 'sl_n', '--cocycle', '{"omega":{"lambda":[[67],[97]]},"v":{"n":2,"rows":[[[23],[89]],[[60],[85]]]}}'),
     0, '2bfe647072eb386d07bb0d466535bd6cf1ad397b718d284ef0414d7fa3c92d09'),
    (('cocycle-check', '--p', '3', '--prec', '4', '--m', '3', '--n', '2', '--samples', '3', '--seed', '7', '--cocycle', '{"omega":{"lambda":[[67,23,60]]},"v":{"n":2,"rows":[[[16,0,77],[58,59,17]],[[21,39,43],[60,80,9]]]}}'),
     0, '90ebe2a6b8aebda56945879652e8d223f62ffd588266f8e40299a238f21eca74'),
    (('hom-check', '--p', '3', '--prec', '4', '--m', '3', '--law', 'multiplicative', '--params', '{"lambda":[[1,0,1],2]}', '--samples', '10', '--seed', '3'),
     0, '29009d0409ee12b1420c328066f572e5b883520fa53ea7db491cfd0ff4e43175'),
    (('teich', '--ring', '{"p":5,"prec":3,"m":2,"modulus":[2,0,1]}', '[0,1]'),
     0, '9444bcff61492cfa57f837e847753959c4950fc696b298238221c9a443805639'),
    (('ring-info', '--p', '5', '--prec', '3', '--m', '2', '--modulus', '[2,0,1]'),
     0, '11c7a7ebcbc9f85160e55bcf4c1ffd08f5f329b57f8e836905a30e87e97c0105'),
    (('decompose', '--p', '5', '--prec', '3', '{"n":3,"rows":[[1,2,0],[3,4,1],[0,1,3]]}'),
     0, 'd3276a00b433ed2cdcf2086eff4047b87c7253d0d1ebaadf845d8bb045274938'),
    (('decompose', '--p', '3', '--prec', '4', '--m', '2', '--precondition', '--seed', '7', '{"n":2,"rows":[[0,[1,1]],[[2,1],0]]}'),
     0, '9c302c6cd259d1060a16bece30cfd8e1ec023562bf6ca27d58ee9bd9dbc93d2c'),
    (('decompose', '--p', '3', '--prec', '4', '--m', '3', '{"n":2,"rows":[[[1,1,0],[0,2,1]],[[3,0,0],[1,1,1]]]}'),
     0, '5667b3847442c2651b002cbcb17cb5bf190523357d05ad3350f4211d16db2307'),
    (('reconstruct', '--p', '5', '--prec', '3', '{"factors":[{"kind":"perm","sigma":[0,1,2]},{"a":[113],"b":[[46],[68]],"kind":"s"},{"kind":"perm","sigma":[2,0,1]},{"a":[87],"b":[[42],[0]],"kind":"s"},{"kind":"perm","sigma":[1,0,2]},{"a":[3],"b":[[0],[0]],"kind":"s"},{"kind":"perm","sigma":[0,1,2]},{"a":[1],"b":[[42],[0]],"kind":"s"},{"kind":"perm","sigma":[2,0,1]},{"a":[1],"b":[[69],[0]],"kind":"s"},{"kind":"perm","sigma":[1,2,0]},{"a":[1],"b":[[0],[102]],"kind":"s"},{"kind":"perm","sigma":[2,1,0]}],"n":3}'),
     0, '74de66353d8d940a354ea4402086b53c8522f71afbfcbe9f5ef022ce239e1333'),
    (('reconstruct', '--p', '3', '--prec', '4', '--m', '2', '{"factors":[{"kind":"perm","sigma":[0,1]},{"a":[2,1],"b":[[0,0]],"kind":"s"},{"kind":"perm","sigma":[1,0]},{"a":[1,1],"b":[[0,0]],"kind":"s"},{"kind":"perm","sigma":[0,1]},{"a":[1,0],"b":[[0,0]],"kind":"s"},{"kind":"perm","sigma":[1,0]}],"n":2}'),
     0, '7c267b4d383fb695dfacada88e1d059091aeaaf408699cbb345559e46492f994'),
    (('cocycle-check', '--p', '5', '--prec', '4', '--n', '3', '--samples', '5', '--seed', '7', '--cocycle', C3),
     0, '83c37eb383a7a5dbc1171f6736dc92343d0ce2181c5738d35f21eafd90bff0fe'),
    (('coherence-check', '--p', '5', '--prec', '4', '--n', '3', '--samples', '5', '--seed', '7', '--subgroup', 'torus', '--cocycle', C3),
     1, '8dfe0a84705783222550ee3d9a67663cb0a2173d67bcb3d6e15eb47eeb6d391a'),
    (('decompose', '--p', '7', '--prec', '3', '--precondition', '--seed', '7', '{"n":4,"rows":[[0,1,2,3],[1,0,5,2],[3,4,0,1],[2,2,1,0]]}'),
     0, '1fb9523c6b39c4d5e92e7c6f688dc9781ea32f039448e1796b311b05fd982e18'),
    (('jet-prolong', '--p', '3', '--prec', '4', '--times', '2', '9*x0^3 + 3*x0*x1 + x1^2'),
     0, '3752f20e4520120dc4a7f128b14f6ee49efca636f1a8239159c96c9975f213d5'),
    (('jet-prolong', '--p', '3', '--prec', '4', '--m', '2', '--times', '2', '9*x0^2*x1 + 3*x0*x1^2 + x1^2 + 27*x0'),
     0, '6e149f4db0cff53ee807f327a6b8a34eeddeb364d0e76dc76b9b4ea97acac544'),
    (('jet-prolong', '--p', '3', '--prec', '2', '--times', '1', '3*x0^3 + 6*x0*x1 + x0^2'),
     0, '8d01edafd52e075d122b2da05ddbf7119149388f7dc2ef41e89b78d83bfdcb3b'),
    (('jet-prolong', '--p', '5', '--prec', '3', '--times', '2', '25*x0^2*x1 + 5*x0^3 + x1^2 + x0'),
     0, '7f275c60d935b23ede234fd8defbfaa12d0986093cec899664c1db4001eca66f'),
    (('jet-prolong', '--p', '3', '--prec', '3', '--m', '3', '--times', '1', '[{"coefficient":[9,3,0],"exponents":[[0,0,2],[1,0,1]]},{"coefficient":[0,9,0],"exponents":[[0,0,1]]},{"coefficient":[1,0,2],"exponents":[[1,0,2]]}]'),
     0, '636d0979931035caa17c00defe98771c36e0eae7a350df1074fc12577897601b'),
    (('decompose', '--p', '5', '--prec', '3', '{"n":5,"rows":[[0,7,10,10,4],[3,7,0,3,7],[4,2,4,4,7],[15,7,10,25,15],[1,0,2,4,4]]}'),
     2, '44679dd440d4ad5c69c09e0057d19e6d78dc870dcbc63fdf5ba1712887a21f56'),
    (('decompose', '--p', '3', '--prec', '3', '--m', '2', '{"n":3,"rows":[[[0,0],[3,3],[1,0]],[[2,2],[3,1],[1,0]],[[1,0],[1,0],[3,2]]]}'),
     2, '3fa020eea50e58b2a3c971b0ceeebe5be15aae4b0995ab14e3976c783f15b0a6'),
    (('decompose', '--p', '5', '--prec', '3', '--precondition', '--seed', '7', '{"n":4,"rows":[[6,2,5,3],[5,5,0,2],[2,1,4,2],[2,7,6,6]]}'),
     2, '0966469795c5ddf43d536c1c2a8b49b89299cbe7ba23b07aebab89a284bb5209'),
    (('jet-prolong', '--p', '3', '--prec', '4', '--times', '1', T0),
     0, '2699a51916494e3881667c4934e5d74b6a3a20be820b9fc4d9232a44a07da89e'),
    (('coherence-check', '--p', '5', '--prec', '3', '--n', '2', '--samples', '5', '--seed', '7', '--subgroup', 'conjugated-torus', '--cocycle', C2),
     1, 'dde979920b3d33c340475af5e1ab192a560eba08f8b07f0d473f991b1cb91c67'),
    (('coherence-check', '--p', '3', '--prec', '4', '--m', '2', '--n', '2', '--samples', '5', '--seed', '7', '--subgroup', 'conjugated-torus', '--cocycle', '{"omega":{"lambda":[[67,23]]},"v":{"n":2,"rows":[[[60,16],[0,77]],[[58,59],[17,21]]]}}'),
     1, '1332203e4bca60ec27b4aed2c11777ab7ec64e4be38cc7923fbe04e0c7e1cff0'),
    (('coherence-check', '--p', '5', '--prec', '3', '--n', '2', '--samples', '5', '--seed', '7', '--subgroup', 'conjugated-torus', '--u', '{"n":2,"rows":[[1,57],[57,1]]}', '--cocycle', C2),
     1, 'b1e840942e9736f109a186bbe466637fc9e4e758ffa7b66d5bf700fb0c1c9867'),
    (('cocycle-check', '--p', '5', '--prec', '3', '--n', '3', '--samples', '5', '--seed', '7', '--map', 'coboundary', '--cocycle', '{"v":{"n":3,"rows":[[1,2,0],[0,1,3],[4,0,1]]}}'),
     0, '17136e01610ee3b459d721ec60a77fafa00bc4961b8eefb6321de0650eb689d1'),
    (('cocycle-recover', '--p', '5', '--prec', '4', '--m', '2', '--n', '3', '--seed', '7', '--cocycle', C3M2),
     0, 'b61e6d249c797e2e59633cd6b3acd3bf236a9cb3d5f3a9006fc6a32287deeceb'),
    (('cocycle-recover', '--backend', 'kolchin', '--trunc', '6', '--map', 'logderiv', '--n', '3'),
     2, 'a89943a1ca5dcd398a2e90d96bbc80300ba60fbc87e50fdfc145612a183e7737'),
    (('decompose', '--p', '3', '--prec', '3', '--m', '2', '--precondition', '--seed', '7', '{"n":5,"rows":[[[25,0],[15,0],[12,0],[0,0],[19,0]],[[14,25],[3,0],[0,0],[0,6],[0,0]],[[24,15],[11,7],[0,0],[0,17],[0,20]],[[0,0],[10,0],[0,13],[21,9],[15,0]],[[18,0],[23,0],[5,22],[0,0],[0,0]]]}'),
     0, 'ec3db6addf28f4ce3a3ffc5f059b1c44eacbbc75b2eeb78f8bdc844ee32c9df7'),
    (('decompose', '--p', '3', '--prec', '3', '--m', '3', '--precondition', '--seed', '7', '{"n":6,"rows":[[[0,0,2],[5,0,9],[6,18,13],[25,0,0],[0,14,1],[0,10,0]],[[16,5,0],[5,16,16],[5,0,13],[0,0,0],[0,14,24],[23,16,8]],[[0,26,0],[14,0,18],[0,14,7],[0,0,0],[0,24,0],[25,0,16]],[[19,9,0],[11,0,2],[0,0,0],[23,18,8],[21,0,16],[8,6,0]],[[22,0,11],[21,3,0],[23,0,4],[0,5,0],[1,0,1],[19,23,10]],[[9,24,1],[0,0,0],[0,7,21],[3,25,0],[18,0,10],[0,0,0]]]}'),
     0, 'a011d3dab67c513fa49d882bfd0e13bdc4bf8d0f8e5735ae8d64a73decf012e8'),
    (('reconstruct', '--p', '3', '--prec', '3', '--m', '3', W4),
     0, 'e9bcf8015dba783920927add937b332d7a0d774282d78d703e913a046d35c0f8'),
    (('reconstruct', '--p', '5', '--prec', '3', '{"n":2,"factors":[{"kind":"perm","sigma":[0,0]},{"kind":"s","a":[1],"b":[[3]]},{"kind":"perm","sigma":[0,1]}]}'),
     2, 'fc5455f2a06ec1ac4260f1f10151441e773dbc57255a1ad1bbd8c81957831039'),
    (('reconstruct', '--p', '5', '--prec', '3', '{"n":2,"factors":[{"kind":"perm","sigma":[1,0]},{"kind":"s","a":[2],"b":[[3]]},{"kind":"perm","sigma":[0,7]}]}'),
     2, '5bfc4a67179b2961080075864af1f3d60bebc80e0ac10c5b047b1c6268636a4b'),
    # a bad permutation before a non-unit s-entry: the s-entries are checked first
    (('reconstruct', '--p', '5', '--prec', '3', '{"n":2,"factors":[{"kind":"perm","sigma":[0,0]},{"kind":"s","a":[5],"b":[[3]]},{"kind":"perm","sigma":[0,1]}]}'),
     2, 'd9345accc46e358343646046112b59c23240f8c7c57b9802cfd0304d47996194'),
    (('coherence-check', '--p', '5', '--prec', '4', '--n', '3', '--samples', '5', '--seed', '7', '--subgroup', 'borel', '--cocycle', C3),
     1, '9048c4812bb1a2ed7748a545d6d700d96b78163d953bb2961921933f16205f57'),
    (('coherence-check', '--p', '5', '--prec', '4', '--n', '3', '--samples', '5', '--seed', '7', '--subgroup', 'sl_n', '--cocycle', C3),
     0, '6cd037136ab9ea68c6e03c5c4bc392c809c2e093c13be9e2d39e0a8024976dd3'),
    (('hom-check', '--backend', 'kolchin', '--trunc', '6', '--law', 'multiplicative', '--samples', '5', '--seed', '3'),
     0, '044d5303c307212083e3433e9395dee5ef1f0d9340225a68a1168cf5af78cbd0'),
    (('reconstruct', '--p', '5', '--prec', '3', '{"n":0,"factors":[{"kind":"perm","sigma":[]}]}'),
     2, '7bbd1e403f2ac6aaf42572ab0ae7cb9e744f38b081c0d28862d0ac50f90d34a6'),
    # the 8x8 anti-diagonal, whose row order is the reversal
    (('decompose', '--p', '5', '--prec', '3', '--precondition', '--seed', '7', ANTI8),
     0, 'b07c3e705c21c898dbc31883c021ff597e11a15216395c53eab8f50273364a77'),
    # a sparse 6x6 matrix over W(F_9)/3^3 whose row order is (2, 0, 1, 4, 3, 5)
    (('decompose', '--p', '3', '--prec', '3', '--m', '2', '--precondition', '--seed', '7', '{"n":6,"rows":[[0,0,[2,24],0,0,0],[0,0,0,0,[13,10],[5,13]],[[26,2],0,0,0,0,0],[0,[7,20],[26,4],0,[11,4],0],[[23,0],[21,6],0,[16,25],0,0],[0,[5,19],[24,22],[3,20],[24,12],[7,11]]]}'),
     0, '044a960e287017730ce60e074ff9ea13139deefa3974a57363984f36f57911cb'),
]


@pytest.mark.parametrize(
    "argv, code, digest", CASES,
    ids=[f"{i:02d}-{case[0][0]}" for i, case in enumerate(CASES)],
)
def test_cli_output_bytes(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
