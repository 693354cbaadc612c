/**
 * @file
 * Runs one program with its stdout discarded and prints, on stdout,
 * "<exit status> <wall seconds> <peak RSS KiB>" of that process alone.
 *
 *   perfbench_launch PROGRAM [ARG...]
 *
 * run.py launches the figure harnesses through this: a process spawned
 * straight from the Python runner starts from the runner's memory image,
 * and Linux carries that resident-set high-water mark into the child's
 * rusage across exec, so its peak RSS would read as the runner's.
 * Forked from this small process, the harness starts from a few hundred
 * KiB. SIGTERM and SIGINT are forwarded, and the program is always
 * waited for.
 */

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace
{

volatile sig_atomic_t childPid = 0;

void
forward(int sig)
{
    if (childPid > 0)
        kill(childPid, sig);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_launch PROGRAM [ARG...]\n");
        return 2;
    }
    std::signal(SIGTERM, forward);
    std::signal(SIGINT, forward);

    const auto start = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("perfbench_launch: fork");
        return 2;
    }
    if (pid == 0) {
        const int null = open("/dev/null", O_WRONLY);
        if (null < 0 || dup2(null, STDOUT_FILENO) < 0) {
            std::perror("perfbench_launch: /dev/null");
            _exit(127);
        }
        execv(argv[1], argv + 1);
        std::perror("perfbench_launch: exec");
        _exit(127);
    }
    childPid = pid;

    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR) {
            std::perror("perfbench_launch: wait4");
            return 2;
        }
    }
    const double seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    std::printf("%d %.9f %ld\n", code, seconds, usage.ru_maxrss);
    return 0;
}
