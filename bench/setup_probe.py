"""Time torseform's set-up in a fresh process: ``import torseform`` plus
loading (parsing and schema-validating) every given scene.

    python3 setup_probe.py SRC_DIR SCENE...

SCENE is ``builtin:NAME`` or a scene file.  Prints the elapsed seconds.
"""

import sys
from time import perf_counter


def main(src: str, specs: list) -> None:
    t0 = perf_counter()
    sys.path.insert(0, src)
    import torseform
    for spec in specs:
        if spec.startswith("builtin:"):
            torseform.builtin_scene(spec.split(":", 1)[1])
        else:
            torseform.load_scene_file(spec)
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
