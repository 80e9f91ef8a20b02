"""Golden generator draws: sha256 digests of ``repr(generate_grid(c))`` and
``repr(generate_jobs(c))`` for seeds 0-2, all three deadline modes and the
grid shapes 25 x 30, 200 x 50 and 50 x 200.

``repr`` of a float round-trips it exactly, so a digest moves whenever any
drawn value, the draw order, an entity id or the job order moves.  The grid
stream does not depend on the job count or the deadline mode, and the job
stream does not depend on the resource count, so the grid digest is keyed
by resources and seed and the job digest by jobs, mode and seed.
"""

from __future__ import annotations

import hashlib

import pytest
from metagrid.workload import ScenarioConfig, generate_grid, generate_jobs

SHAPES = ((25, 30), (200, 50), (50, 200))
MODES = ("tight", "medium", "relaxed")
SEEDS = (0, 1, 2)

GRID_SHA256 = {
    (25, 0): "b1ba750ec5e4734ba5bf3f9a0ebab36898b74e42b60895f7d8f99976c8792ee4",
    (25, 1): "caae7387b4a43ca09dff386147e698c3a822b8e1bb6ac0fb57ba2351b7752083",
    (25, 2): "150938bbd71f7b753252d50d9ea6460cce991f17eba56aa7ade742eee0a1bef6",
    (200, 0): "ed04b82676f8e690e316b2b142b4eb7973c0ddd40b04f4f671ce6fa55b903f90",
    (200, 1): "b59c30c3ec51db5829107c72cfe7d5216709e1b1785561cb3113e2de0281f1f1",
    (200, 2): "ce187f7aae0cf68833d2229a6dbc1d2f491644c81d7fbba0aac52acfd7b6e782",
    (50, 0): "fd46b5702fe547396399b9234c6d610b399d0921a36cbfacdc612aa234d19820",
    (50, 1): "c42ecfec8fecce517e21419b2aad8314a060c01e7e103f6d65b0b12512756706",
    (50, 2): "32d493ec980f03350526f30a3f4ba4d81aeaa448726c79ed9751b477ff4a942e",
}
JOBS_SHA256 = {
    (30, "tight", 0): "c26a6caf8c94aa565e4f0ac58b9bc69fe274caf585b7e64611fd5b318990e964",
    (30, "tight", 1): "3e6e14df3a70878d0c27e28e5ddaf5dde66f365c67f8c2ccf065e7ff11a40e3b",
    (30, "tight", 2): "8bd5244eff79b1d060974115bb4081e8d54f1c6bbeca6e201aebefa24cf0f62e",
    (30, "medium", 0): "eb9a86e2703a046f7d1337a49c6fe29dcede149704944fc746d4aa36149625ab",
    (30, "medium", 1): "912c33f087c76c199d1b298d334a1ad463db8101039403fe17f2afef106bc569",
    (30, "medium", 2): "c69128f8f6aeb47cb611c73682d5a611549b35d6bf67990848a2d76704e21d01",
    (30, "relaxed", 0): "23aa6b9f5d4a514926d468716dba0f609b15617899af4ad9ab1c22f607a13197",
    (30, "relaxed", 1): "4199db8318e02abcfe62ab482815ee8d44eb295991cd536c6ef56b3e74439427",
    (30, "relaxed", 2): "05f724e3160abb7e4064737da3a3dc5b3ccedabe6906317bc65dd56fe1616123",
    (50, "tight", 0): "e15d2b90b44aa4b923ab789eaf881d5ca43d5cf7c8592067f1c76cc3b0850dc9",
    (50, "tight", 1): "61475c916c6edabc951e58c0e9cd5802ceb976845a4742e1dfa7717327d0d674",
    (50, "tight", 2): "e9ce9c6da800a91f061ca9585819b2d5df3a1e80d88274be6db6f2e327c33605",
    (50, "medium", 0): "1c4cfc4aeddcccd0d1d49706e2502441eb67891ed8ccdfa3231ec0cade2dd367",
    (50, "medium", 1): "cbfd4810b32839837775a55f45a433d043417c6fc790b64d350e1e66fb1e0c7d",
    (50, "medium", 2): "b3f3cb2584c25f24bbd1fa9b0dc0d83caa905543ac939e2eca46055e6ea90f09",
    (50, "relaxed", 0): "f8f8fd72f2f71daf06d572e42a1798fd1e160e660d926598a8b2af83078027d3",
    (50, "relaxed", 1): "e1e86c733e67e009113bf3e73399136f6c009fcb7c8736099ef5ba80712f6ee3",
    (50, "relaxed", 2): "5f95862afb43de1b6dad0fb4ac74f08cf514632a007dd7b629a3f2d3326454cb",
    (200, "tight", 0): "121a0c60759236263492464ca4ea1935d9998ced411ad0919d32af9c2f3f5121",
    (200, "tight", 1): "5bc7a5686d3a24aca4189cc03dd504199451e278350ae23db28de08a07416642",
    (200, "tight", 2): "177842c02ab5264c899ddd9d828a369a5ef5f17e4203f8290f45774d166b3e18",
    (200, "medium", 0): "8ae5ab3fffc7b912b730b6d3de5364ed9149e30f7d63642c4f42b253768930a3",
    (200, "medium", 1): "27f56af5ddc14d671efd525cc55addc58c6dc37cf51a7718c476562cdf9481d6",
    (200, "medium", 2): "a1ff760732b85082f00ef2e9f01a3cfbf29cb8d18f47f065e12ef66d101d318d",
    (200, "relaxed", 0): "b50e7ca452ef3e438781f7a3f5566256c5ce772276cb642765024bbea0022078",
    (200, "relaxed", 1): "35dcaea0e285cd0574e3734f91c408553d6c67df9914c366440e0e46eded114a",
    (200, "relaxed", 2): "9a1f0a64d2db8cf15ac5cfc166f668dcf0f120b11728e039ca9e3c7fbc7cd50a",
}


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("resources, jobs", SHAPES)
def test_generator_matches_golden(resources, jobs, mode, seed):
    config = ScenarioConfig(
        resource_count=resources, job_count=jobs, deadline_mode=mode, rng_seed=seed
    )
    assert _sha256(generate_grid(config)) == GRID_SHA256[(resources, seed)]
    assert _sha256(generate_jobs(config)) == JOBS_SHA256[(jobs, mode, seed)]
