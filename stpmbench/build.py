"""Build file of the benchmark package.

Compiles the program's sources (src/main/scala) together with the
benchmark's own sources (stpmbench/scala) into .bench_build/classes, with
the Scala compiler and libraries that ship in Spark's jars directory
(found through SPARK_HOME, or through spark-submit on the PATH). A stamp
over every source file and jar name skips the compile when nothing changed.

    python3 stpmbench/build.py        # prints the classes directory
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "stpmbench"
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
OUT = ROOT / ".bench_build"
CLASSES = OUT / "classes"
# Hash of the sources and jars the classes were built from.
STAMP_FILE = OUT / "classes.stamp"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found "
                         "(set SPARK_HOME)")
    return jars


def classpath(classes: Path) -> str:
    return os.pathsep.join([str(classes), str(spark_jars() / "*")])


def sources() -> list:
    if not PROGRAM_SRC.is_dir():
        raise BuildError(f"program sources missing: {PROGRAM_SRC.relative_to(ROOT)}")
    files = sorted(PROGRAM_SRC.rglob("*.scala")) + sorted((BENCH / "scala").glob("*.scala"))
    if not files:
        raise BuildError("no Scala sources found")
    return files


def stamp(files: list) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    for jar in sorted(p.name for p in spark_jars().glob("*.jar")):
        h.update(jar.encode())
    return h.hexdigest()


def build(log=sys.stderr) -> Path:
    files = sources()
    want = stamp(files)
    if CLASSES.is_dir() and STAMP_FILE.is_file() and STAMP_FILE.read_text() == want:
        return CLASSES
    tmp = OUT / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:+UseSerialGC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={OUT}",
           "-cp", str(spark_jars() / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-classpath", str(tmp), "-nowarn", "-d", str(tmp)] + [str(f) for f in files]
    print(f"stpmbench: compiling {len(files)} Scala files", file=log, flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise BuildError("scalac failed:\n" + proc.stdout[-4000:])
    shutil.rmtree(CLASSES, ignore_errors=True)
    tmp.rename(CLASSES)
    STAMP_FILE.write_text(want)
    return CLASSES


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"stpmbench: {e}", file=sys.stderr)
        sys.exit(1)
